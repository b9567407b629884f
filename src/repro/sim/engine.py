"""The simulation environment: clock, event queue, and run loop.

The environment keeps a binary heap of ``(time, priority, sequence,
event)`` tuples.  ``sequence`` is a monotonically increasing counter
that makes the ordering total and therefore the simulation fully
deterministic: two events scheduled for the same time and priority are
processed in scheduling order.

Typical use::

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0 and proc.value == "done"
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Union

from .errors import EmptySchedule, StopSimulation
from .events import PRIORITY_NORMAL, AllOf, AnyOf, Event, Timeout
from .process import Process


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence: int = 0
        self._active_process: Optional[Process] = None

    # -- introspection ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Condition that fires when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition that fires when any event in ``events`` has."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        """Insert ``event`` into the queue ``delay`` units from now.

        Every event enters the queue here; only :meth:`run`'s own stop
        marker for ``until=<time>`` is pushed directly.  ``delay`` must
        be ``>= 0``, tested so that NaN fails too: a NaN time would pop
        out of order and run the clock backwards.
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heappush(self._queue, (self._now + delay, priority, self._sequence, event))
        self._sequence += 1

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        Raises :class:`EmptySchedule` when the queue is empty, and
        re-raises the exception of any failed event nobody handled
        (an "undefused" failure), so programming errors inside
        processes surface instead of being silently dropped.
        """
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no more events") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double processing guard
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise RuntimeError(f"event failed with non-exception value {value!r}")

    def run(self, until: Union[None, float, int, Event] = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue is exhausted.
            a number
                run until the clock reaches that time (events scheduled
                exactly at ``until`` are *not* processed, matching simpy).
            an :class:`Event`
                run until that event is processed; its value is returned.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if not stop_event._ok:
                    raise stop_event._value  # type: ignore[misc]
                return stop_event.value
            stop_event.callbacks.append(_stop_simulation)
        else:
            at = float(until)
            if not at >= self._now:  # also rejects NaN
                raise ValueError(f"until={at} must be a time at or after now={self._now}")
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            # Urgent priority so the clock stops before same-time events run.
            heappush(self._queue, (at, -1, self._sequence, stop_event))
            self._sequence += 1
            stop_event.callbacks.append(_stop_simulation)

        try:
            while True:
                self.step()
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "run(until=event) exhausted all events before the event triggered"
                ) from None
            return None
        except StopSimulation as stop:
            return stop.value


def _stop_simulation(event: Event) -> None:
    """Callback that terminates :meth:`Environment.run`.

    A failed ``until`` event re-raises its exception in the caller of
    ``run`` rather than wrapping it in :class:`StopSimulation`.
    """
    if not event._ok:
        event.defused()
        raise event._value  # type: ignore[misc]
    raise StopSimulation(event._value)
