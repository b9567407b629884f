"""NI send-queue scheduling policies for concurrent multicasts.

With a single multicast, the NI send queue's discipline is irrelevant —
jobs arrive in the only sensible order.  With *multiple* concurrent
multicasts (the group's companion problem [6]), an NI that forwards for
several messages must decide whose packet goes out next:

* **FIFO** (the default :class:`~repro.sim.store.Store`): strict
  arrival order.  A burst from one message can starve another.
* **Round-robin** (:class:`RoundRobinSendQueue`): one backlog per
  message, served cyclically — each active message gets every
  ``1/active``-th injection slot, bounding cross-multicast interference
  at the NI.

Both expose the Store-compatible surface the NI uses
(``put_nowait(item)``, the fire-and-forget enqueue that schedules no
event, and ``get() -> Event``), so they plug into
:class:`~repro.mcast.simulator.MulticastSimulator` via its
``send_policy`` parameter.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, List

from ..sim import Environment, Event
from ..sim.store import Store

__all__ = ["FifoSendQueue", "RoundRobinSendQueue", "SEND_POLICIES"]

#: FIFO is simply the kernel Store.
FifoSendQueue = Store


def _message_key(item) -> object:
    """Scheduling class of a send job: its message id (or a control bucket)."""
    packet = getattr(item, "packet", item)
    message = getattr(packet, "message", None)
    if message is not None:
        return message.msg_id
    return "__control__"


class RoundRobinSendQueue:
    """Per-message FIFO backlogs served in round-robin order."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        self.env = env
        self._backlogs: "OrderedDict[object, Deque]" = OrderedDict()
        self._waiting: List[Event] = []
        self._size = 0

    # -- Store-compatible surface -----------------------------------------------
    def put(self, item) -> Event:
        """Enqueue ``item``; the returned event is already triggered.

        Kept for Store compatibility; the NIs call :meth:`put_nowait`.
        """
        event = Event(self.env)
        event.succeed()
        self.put_nowait(item)
        return event

    def put_nowait(self, item) -> None:
        """Enqueue ``item`` under its message's backlog; schedule no event."""
        key = _message_key(item)
        backlog = self._backlogs.get(key)
        if backlog is None:
            backlog = deque()
            self._backlogs[key] = backlog
        backlog.append(item)
        self._size += 1
        self._serve()

    def get(self) -> Event:
        """Event that fires with the next round-robin item."""
        event = Event(self.env)
        self._waiting.append(event)
        self._serve()
        return event

    @property
    def size(self) -> int:
        return self._size

    # -- internals ------------------------------------------------------------
    def _pop_next(self):
        """Take the head of the next non-empty backlog, rotating it back."""
        while self._backlogs:
            key, backlog = next(iter(self._backlogs.items()))
            self._backlogs.move_to_end(key)
            if backlog:
                self._size -= 1
                item = backlog.popleft()
                if not backlog:
                    del self._backlogs[key]
                return item
            del self._backlogs[key]
        raise IndexError("empty queue")

    def _serve(self) -> None:
        while self._waiting and self._size:
            self._waiting.pop(0).succeed(self._pop_next())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RoundRobinSendQueue size={self._size} classes={len(self._backlogs)}>"


SEND_POLICIES = {
    "fifo": FifoSendQueue,
    "round_robin": RoundRobinSendQueue,
}
