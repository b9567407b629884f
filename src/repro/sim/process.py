"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Each ``yield`` suspends the process until the yielded event
is processed, at which point the generator is resumed with the event's
value (or has the event's exception raised into it, if it failed).

Processes are themselves events: they trigger when the generator
returns (value = the generator's return value) or raises (the process
event fails).  This lets processes wait on each other simply by
yielding another process.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Optional

from .errors import Interrupt, InvalidEventUsage
from .events import PRIORITY_URGENT, Event, Initialize

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    Do not instantiate directly; use :meth:`Environment.process`.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator, name: Optional[str] = None) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you forget a 'yield' in the function?"
            )
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when not
        #: started or already finished).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Raise :class:`~repro.sim.errors.Interrupt` inside the process.

        The process resumes immediately (at the current simulation time)
        with the exception raised at its current ``yield``.  Interrupting
        a finished process is an error; interrupting is idempotent only
        in the sense that each call delivers one interrupt.
        """
        if self.triggered:
            raise InvalidEventUsage(f"{self} has terminated and cannot be interrupted")
        if self._target is None:
            raise InvalidEventUsage(f"{self} has not started yet")
        # Deliver via a dedicated urgent event so the interrupt arrives
        # in deterministic order with respect to other events now.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, PRIORITY_URGENT)
        # Detach from the old target so its eventual processing does not
        # resume us a second time.
        if self._target.callbacks is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._target = None

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        The only way a process resumes: every event a process waits on
        carries this method as a callback.
        """
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                env._active_process = None
                self._ok = True
                self._value = exc.value
                env.schedule(self)
                return
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                raise InvalidEventUsage(
                    f"process {self.name!r} yielded {next_event!r}, which is not an Event"
                )
            if next_event.env is not env:
                env._active_process = None
                raise InvalidEventUsage(
                    f"process {self.name!r} yielded an event from a different environment"
                )

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: loop around synchronously with its value.
                event = next_event
                continue
            self._target = next_event
            callbacks.append(self._resume)
            break
        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"
