"""Core event types for the discrete-event simulation kernel.

An :class:`Event` moves through three states:

``pending``
    Created but not yet triggered.  It sits outside the event queue;
    processes may register callbacks on it.
``triggered``
    ``succeed``/``fail`` has been called (or it was born scheduled, like
    :class:`Timeout`).  It now has a value and sits in the environment's
    queue waiting to be processed.
``processed``
    The environment has popped it and run its callbacks.

The design follows the simpy event model closely enough that anyone who
has used simpy will feel at home, but it is an independent, minimal
implementation with no third-party dependencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import InvalidEventUsage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Environment

#: Event-queue priorities.  Urgent events (process resumptions caused by
#: other events at the same timestamp) run before normal ones so that,
#: e.g., a resource release at time t is observed by requests at time t.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

#: Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.engine.Environment` the event belongs to.

    Notes
    -----
    Callbacks are plain callables taking the event as their only
    argument.  They run exactly once, when the environment processes the
    event.  Registering a callback on an already *processed* event is an
    error (the callback would never run); use :attr:`processed` to check.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to run on processing; ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        # A failed event whose exception was consumed (e.g. by a waiting
        # process) is "defused"; an undefused failure crashes the run.
        self._defused: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it is or was in the queue)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise InvalidEventUsage(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise InvalidEventUsage(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event so ``return event.succeed()`` chains nicely.
        """
        if self.triggered:
            raise InvalidEventUsage(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, PRIORITY_NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` raised
        at its ``yield`` statement.
        """
        if self.triggered:
            raise InvalidEventUsage(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, PRIORITY_NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the state of ``event`` onto this event and schedule it.

        Used as a callback to chain events together.
        """
        if self.triggered:
            raise InvalidEventUsage(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self, PRIORITY_NORMAL)

    def defused(self) -> None:
        """Mark a failed event's exception as handled."""
        self._defused = True

    # -- composition ---------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created already *triggered*: it is scheduled immediately and cannot
    be cancelled (ignore its value instead).  :meth:`Environment.schedule
    <repro.sim.engine.Environment.schedule>` refuses a negative or NaN
    ``delay``.

    The hottest event type, so it sets its slots itself instead of going
    through :meth:`Event.__init__`.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env.schedule(self, PRIORITY_NORMAL, delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process) -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, PRIORITY_URGENT)


class Condition(Event):
    """Waits for a combination of events.

    The condition's value is an ordered dict mapping each *triggered*
    constituent event to its value at the moment the condition fired.

    Parameters
    ----------
    evaluate:
        ``evaluate(events, count)`` returns ``True`` once the condition
        holds, where ``count`` is the number of constituents processed
        so far.
    events:
        The constituent events.  Nested conditions flatten their leaves
        into the result dictionary.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        # Immediately true for empty conditions.
        if self._evaluate(self._events, 0):
            self.succeed(self._collect_values())
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        """Values of all triggered leaf events, in construction order."""
        values: dict = {}
        self._populate(self, values)
        return values

    def _populate(self, event: Event, values: dict) -> None:
        if isinstance(event, Condition):
            for child in event._events:
                self._populate(child, values)
        elif event.processed:
            # Only *processed* constituents contribute: a pending Timeout
            # is born triggered but has not yet "happened".
            values[event] = event._value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused()
            self.fail(event._value)  # type: ignore[arg-type]
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Fires when *all* constituent events have been processed."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= len(events), events)


class AnyOf(Condition):
    """Fires when *any* constituent event has been processed."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count > 0 or not events, events)
