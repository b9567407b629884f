"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
instances.  Each ``yield`` suspends the process until the yielded event
is processed, at which point the generator is resumed with the event's
value (or has the event's exception raised into it, if it failed).

A process sleeps by yielding its delay, a non-negative ``int`` or
``float``: ``yield 2.5`` resumes it 2.5 time units later with ``None``,
exactly as ``yield env.timeout(2.5)`` would (same time, same queue
order), but it re-arms one wake event the process owns instead of
allocating a :class:`~repro.sim.events.Timeout` per sleep.

Processes are themselves events: they trigger when the generator
returns (value = the generator's return value) or raises (the process
event fails).  This lets processes wait on each other simply by
yielding another process.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Optional

from .errors import Interrupt, InvalidEventUsage
from .events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, Initialize

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    Do not instantiate directly; use :meth:`Environment.process`.
    """

    __slots__ = ("_generator", "_target", "_wake", "name")

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
        #: The event a yielded delay re-arms (see :meth:`_resume`).
        self._wake = _wake_event(env)
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
        # resume us a second time.  An interrupted sleep leaves its wake
        # entry in the queue, as an abandoned Timeout would be; the next
        # sleep arms a fresh wake event, so that entry pops with no
        # callbacks and can never resume this process.
        if self._target is self._wake:
            self._wake = _wake_event(self.env)
        self._detach()

    def close(self) -> None:
        """Stop a parked process for good: nothing resumes it again.

        Detaches it from the event it waits on and closes its generator,
        which releases the generator's frame, so an idle engine of a
        finished simulation no longer holds what it ran on.
        """
        if self._target is not None:
            self._detach()
        self._generator.close()

    def _detach(self) -> None:
        """Stop waiting on the target: its processing no longer resumes us."""
        callbacks = self._target.callbacks
        if callbacks is not None and self._resume in callbacks:
            callbacks.remove(self._resume)
        self._target = None

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        The only way a process resumes: every event a process waits on
        carries this method as a callback.  A yielded delay schedules
        the process's wake event through :meth:`Environment.schedule
        <repro.sim.engine.Environment.schedule>` here, at the sequence
        number ``Timeout(env, delay)`` would have taken in the generator
        just before its yield; a delay ``schedule`` refuses (negative or
        NaN) is raised at the ``yield``, where ``Timeout`` raised it.
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

            kind = type(next_event)
            if kind is not float and kind is not int:
                if isinstance(next_event, Event):
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
                if kind is bool or not isinstance(next_event, (int, float)):
                    env._active_process = None
                    raise InvalidEventUsage(
                        f"process {self.name!r} yielded {next_event!r}, "
                        "which is not an Event or a delay"
                    )

            # A delay: sleep on the wake event.
            wake = self._wake
            try:
                env.schedule(wake, PRIORITY_NORMAL, next_event)
            except ValueError as exc:
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            wake.callbacks = [self._resume]
            self._target = wake
            break
        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"


def _wake_event(env: "Environment") -> Event:
    """A process's wake event: born triggered (value ``None``), never queued
    until a yielded delay arms it."""
    wake = Event(env)
    wake._value = None
    return wake
