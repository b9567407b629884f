"""A from-scratch discrete-event simulation kernel (simpy-flavoured).

Public surface::

    env = Environment()
    env.process(gen)           # start a generator process
    yield d                    # in a process: sleep d (an int or float >= 0)
    env.timeout(d)             # delay event (for conditions, or to keep it)
    env.event()                # manual event
    env.all_of / env.any_of    # condition events
    Resource / PriorityResource
    Store / FilterStore
    LevelMonitor

The kernel is deterministic: same inputs, same event ordering, always.
A yielded delay re-arms the process's own wake event instead of
allocating a :class:`Timeout`, at the same queue position, so the two
sleeps are interchangeable.
"""

from .engine import Environment
from .errors import (
    EmptySchedule,
    Interrupt,
    InvalidEventUsage,
    SimulationError,
    StopSimulation,
)
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .monitor import LevelMonitor
from .process import Process
from .resources import PriorityResource, Request, Resource
from .store import FilterStore, Store, StoreFull, StoreGet, StorePut

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "InvalidEventUsage",
    "LevelMonitor",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "StoreFull",
    "StoreGet",
    "StorePut",
    "Timeout",
]
