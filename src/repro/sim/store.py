"""FIFO item stores for producer/consumer pipelines.

:class:`Store` is an unbounded (or capacity-limited) queue of arbitrary
items with blocking ``get`` and (when bounded) blocking ``put``.  The
network-interface send and receive queues in :mod:`repro.nic` are
Stores; the NIs enqueue with :meth:`Store.put_nowait`, which schedules
no event, because no process ever waits for one of their puts.

:class:`FilterStore` extends ``get`` with a predicate so a consumer can
wait for a *specific* item (e.g. "the next packet of message 7").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from .errors import SimulationError
from .events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: object) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiting.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending retrieval of an item from a store.

    Every NI engine builds one per packet, so it sets its slots itself
    instead of going through :meth:`Event.__init__`, and it dispatches
    only when the store holds items or blocked puts.
    """

    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[object], bool]] = None) -> None:
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.filter = filter
        store._get_waiting.append(self)
        if store.items or store._put_waiting:
            store._dispatch()


class StoreFull(SimulationError):
    """Raised by :meth:`Store.put_nowait` on a bounded store with no room."""


class Store:
    """FIFO item queue with optional capacity bound.

    Parameters
    ----------
    capacity:
        Maximum items held; ``inf`` (default) for unbounded.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        # Blocked puts: only a bounded store has any.  A list, because
        # every NI holds two stores and an empty deque is ten times the
        # size of an empty list.
        self._put_waiting: list[StorePut] = []
        self._get_waiting: list[StoreGet] = []

    def put(self, item: object) -> StorePut:
        """Insert ``item``; the returned event fires once it is stored.

        A producer on a bounded store yields this event to wait for
        room.  A producer that never waits should use
        :meth:`put_nowait`, which stores the item without scheduling an
        event.
        """
        return StorePut(self, item)

    def put_nowait(self, item: object) -> None:
        """Insert ``item`` now and serve waiting gets; schedule no event.

        The fire-and-forget enqueue: the same outcome as an unwaited
        :meth:`put`, minus the put event that nobody would yield.
        Raises :class:`StoreFull` if the store is bounded and full.
        """
        if len(self.items) >= self.capacity:
            raise StoreFull(f"{self!r} is full; yield put(item) to wait for room")
        self.items.append(item)
        # Room for the item means no put is blocked, so serving the
        # waiting gets is all that is left of a dispatch.
        if self._get_waiting:
            self._serve_gets()

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the event's value is the item."""
        return StoreGet(self)

    @property
    def size(self) -> int:
        return len(self.items)

    # -- internals ---------------------------------------------------------
    def _dispatch(self) -> None:
        """Move items from waiting puts into the queue and satisfy gets."""
        progress = True
        while progress:
            progress = False
            # Admit pending puts while there is room.
            while self._put_waiting and len(self.items) < self.capacity:
                put = self._put_waiting.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve pending gets with available items.
            if self._serve_gets():
                progress = True

    def _serve_gets(self) -> bool:
        served = False
        while self._get_waiting and self.items:
            get = self._get_waiting.pop(0)
            get.succeed(self.items.popleft())
            served = True
        return served

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} size={len(self.items)} capacity={self.capacity}>"


class FilterStore(Store):
    """A :class:`Store` whose ``get`` can select items by predicate.

    ``get(filter)`` returns the *oldest* item satisfying ``filter``.
    Gets are served in request order, but a get whose predicate matches
    nothing does not block later gets with satisfiable predicates.
    """

    def get(self, filter: Optional[Callable[[object], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, filter)

    def _serve_gets(self) -> bool:
        served = False
        remaining: list[StoreGet] = []
        for get in self._get_waiting:
            matched = None
            for item in self.items:
                if get.filter is None or get.filter(item):
                    matched = item
                    break
            if matched is not None:
                self.items.remove(matched)
                get.succeed(matched)
                served = True
            else:
                remaining.append(get)
        self._get_waiting = remaining
        return served
