"""Messages and packets (§2.1 packetization).

A :class:`Message` is the application-level unit: a source, a set of
destinations, and a length in packets.  The NI layer deals in
:class:`Packet` — fixed-size fragments carrying their message id and
sequence index, exactly the header information the smart NI coprocessor
needs to look up the forwarding children (§2.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Tuple

from ..network.topology import Node

__all__ = ["Message", "Packet", "packetize"]

_message_ids = itertools.count(1)


@dataclass(frozen=True)
class Message:
    """An application message to be multicast.

    Attributes
    ----------
    source:
        Sending host node.
    destinations:
        Receiving host nodes (excluding the source).
    num_packets:
        Message length in fixed-size packets (``m`` in the paper).
    msg_id:
        Unique id carried in every packet header.
    """

    source: Node
    destinations: Tuple[Node, ...]
    num_packets: int
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if self.num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {self.num_packets}")
        if not self.destinations:
            raise ValueError("message needs at least one destination")
        if self.source in self.destinations:
            raise ValueError("source cannot be its own destination")
        if len(set(self.destinations)) != len(self.destinations):
            raise ValueError("duplicate destinations")

    @property
    def n(self) -> int:
        """Multicast set size (source + destinations) — ``n`` in the paper."""
        return 1 + len(self.destinations)


@dataclass(frozen=True)
class Packet:
    """One fixed-size fragment of a message."""

    message: Message
    index: int

    def __post_init__(self) -> None:
        if not (0 <= self.index < self.message.num_packets):
            raise ValueError(
                f"packet index {self.index} outside [0, {self.message.num_packets})"
            )

    @property
    def msg_id(self) -> int:
        """The message id in this packet's header (as on a NACK)."""
        return self.message.msg_id

    @property
    def is_last(self) -> bool:
        return self.index == self.message.num_packets - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Packet msg={self.message.msg_id} {self.index + 1}/{self.message.num_packets}>"


def packetize(message: Message) -> list[Packet]:
    """All packets of ``message`` in sequence order."""
    return [Packet(message, i) for i in range(message.num_packets)]
