"""Shared resources with FIFO and priority queueing.

:class:`Resource` models a pool of ``capacity`` identical slots (a
network link is a ``Resource(env, capacity=1)``).  Processes acquire a
slot by yielding a request event and give it back with ``release``::

    link = Resource(env, capacity=1)

    def send(env, link):
        req = link.request()
        yield req                 # waits until a slot is free
        yield env.timeout(1.0)    # hold the link
        link.release(req)

Requests also work as context managers::

    with link.request() as req:
        yield req
        yield env.timeout(1.0)

:class:`PriorityResource` orders waiting requests by a user-supplied
priority (lower value = served first), with FIFO tie-breaking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import InvalidEventUsage
from .events import _PENDING, PRIORITY_NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    Built once per channel hop of every packet, so it sets its slots
    itself instead of going through :meth:`Event.__init__`, and a
    request for a free slot is granted right here.  Only a
    :class:`PriorityRequest` carries a priority and an arrival number.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.env = env = resource.env
        self.callbacks = []
        self._ok = True
        self._defused = False
        self.resource = resource
        users = resource._users
        if len(users) < resource.capacity:
            users.append(self)
            self._value = None
            env.schedule(self, PRIORITY_NORMAL)
        else:
            self._value = _PENDING
            resource._insert_waiting(self)

    def cancel(self) -> None:
        """Withdraw an ungran­ted request from the wait queue."""
        if self.triggered:
            raise InvalidEventUsage("cannot cancel a granted request; release it instead")
        self.resource._waiting.remove(self)

    # Context-manager sugar: ``with res.request() as req: yield req``.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.triggered and self in self.resource._users:
            self.resource.release(self)
        elif not self.triggered:
            self.cancel()


class PriorityRequest(Request):
    """A :class:`PriorityResource` request: waits in (priority, arrival) order."""

    __slots__ = ("priority", "_order")

    def __init__(self, resource: "PriorityResource", priority: float = 0.0) -> None:
        self.priority = priority
        resource._order_counter += 1
        self._order = resource._order_counter
        super().__init__(resource)


class Resource:
    """A pool of ``capacity`` slots with a FIFO wait queue.

    Attributes
    ----------
    capacity:
        Total slots.
    count:
        Slots currently held.
    queue_length:
        Requests currently waiting.
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiting: list[Request] = []

    # -- public API ------------------------------------------------------
    def request(self) -> Request:
        """Create (and possibly immediately grant) a slot request."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return the slot held by ``request`` to the pool."""
        try:
            self._users.remove(request)
        except ValueError:
            raise InvalidEventUsage(f"{request!r} does not hold a slot of this resource") from None
        if self._waiting:
            self._grant_waiting()

    @property
    def count(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    # -- internals ---------------------------------------------------------
    def _insert_waiting(self, request: Request) -> None:
        self._waiting.append(request)

    def _pop_waiting(self) -> Optional[Request]:
        return self._waiting.pop(0) if self._waiting else None

    def _grant_waiting(self) -> None:
        while len(self._users) < self.capacity:
            nxt = self._pop_waiting()
            if nxt is None:
                return
            self._users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} capacity={self.capacity} "
            f"used={self.count} waiting={self.queue_length}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is priority-ordered.

    ``request(priority=p)`` — lower ``p`` is served first; equal
    priorities are FIFO.
    """

    __slots__ = ("_order_counter",)

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._order_counter = 0

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _insert_waiting(self, request: Request) -> None:
        # Binary insertion keyed on (priority, arrival order).
        key = (request.priority, request._order)
        lo, hi = 0, len(self._waiting)
        while lo < hi:
            mid = (lo + hi) // 2
            w = self._waiting[mid]
            if (w.priority, w._order) <= key:
                lo = mid + 1
            else:
                hi = mid
        self._waiting.insert(lo, request)
