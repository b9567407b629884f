"""First-Packet-First-Served smart NI (§3.2, Fig. 7).

The coprocessor forwards the multicast **per packet**: when packet ``j``
arrives (or, at the source, is handed over by the host), its copies to
*all* children are queued before anything of packet ``j+1``.  A packet
is buffered only until its last copy has left — ``c · t_sq`` residence,
the §3.3.2 lower bound.

No per-message counters are needed (the "ease of implementation"
argument of §3.3.1): arrival order alone drives the schedule, which is
why this class is a few lines on top of the base NI.
"""

from __future__ import annotations

from ..core.trees import MulticastTree
from .interface import NetworkInterface
from .packets import Message, Packet, packetize

__all__ = ["FPFSInterface"]


class FPFSInterface(NetworkInterface):
    """Smart NI with per-packet (FPFS) forwarding."""

    def on_packet(self, packet: Packet) -> None:
        children = self.forwarding.get(packet.message.msg_id, ())
        self._enqueue_copies(packet, children)

    def inject_multicast(self, tree: MulticastTree, message: Message):
        """Source side: host start-up, then packet-major injection.

        Sender loop of Fig. 7: ``for j in packets: for i in children:
        send(child_i, packet_j)``.
        """
        if tree.root != self.host:
            raise ValueError(f"{self.host!r} is not the root of the tree")
        start = self.env.now if self.tracer.enabled else 0.0
        # Host software start-up: one t_s to move the message to NI memory.
        yield self.params.t_s
        children = tree.children(self.host)
        for packet in packetize(message):
            self._enqueue_copies(packet, children)
        if self.tracer.enabled:
            self.tracer.complete(
                "inject",
                self.obs_track,
                start,
                self.env.now,
                cat="ni",
                args={"msg": message.msg_id, "m": message.num_packets},
            )
        return message
