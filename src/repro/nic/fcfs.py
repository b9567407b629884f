"""First-Child-First-Served smart NI (§3.1, Fig. 6).

The coprocessor forwards the multicast **per child**: each arriving
packet goes to the first child immediately (cut-through on the first
branch), but children ``2..c`` receive nothing until the *entire*
message has been buffered, after which it streams to each remaining
child in turn.  The NI must keep a per-message arrival counter and
buffer every packet until its copy to the last child has left — the
``((c-1)p + 1) · t_sq`` residence of §3.3.2.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.trees import MulticastTree
from .interface import NetworkInterface, SendJob
from .packets import Message, Packet, packetize

__all__ = ["FCFSInterface"]


class FCFSInterface(NetworkInterface):
    """Smart NI with per-child (FCFS) forwarding."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-message bookkeeping: buffered packets in arrival order
        # (the §3.3.1 counter the FPFS scheme avoids).
        self._buffered: Dict[int, List[Packet]] = {}
        # (msg_id, pkt) -> outstanding copies before the buffer slot frees.
        self._copies_left: Dict[tuple, int] = {}

    def on_packet(self, packet: Packet) -> None:
        children = self.forwarding.get(packet.message.msg_id, ())
        if not children:
            return
        msg = packet.message
        buffered = self._buffered.setdefault(msg.msg_id, [])
        buffered.append(packet)
        self.forward_buffer.change(+1)
        if self.tracer.enabled:
            self._log_buffer_level()
        self._track_release(packet, copies=len(children))
        # Cut-through to the first child as each packet arrives.
        self.send_queue.put_nowait(SendJob(packet, children[0], on_sent=self._release_one(packet)))
        if len(buffered) == msg.num_packets:
            # Whole message present: stream it to each remaining child.
            for child in children[1:]:
                for buffered_packet in buffered:
                    self.send_queue.put_nowait(
                        SendJob(buffered_packet, child, on_sent=self._release_one(buffered_packet))
                    )
            del self._buffered[msg.msg_id]

    # -- buffer release tracking ------------------------------------------------
    def _track_release(self, packet: Packet, copies: int) -> None:
        self._copies_left[(packet.message.msg_id, packet.index)] = copies

    def _release_one(self, packet: Packet):
        key = (packet.message.msg_id, packet.index)

        def on_sent() -> None:
            self._copies_left[key] -= 1
            if self._copies_left[key] == 0:
                self.forward_buffer.change(-1)
                del self._copies_left[key]
                if self.tracer.enabled:
                    self._log_buffer_level()

        return on_sent

    def inject_multicast(self, tree: MulticastTree, message: Message):
        """Source side: host start-up, then child-major injection.

        Sender loop of Fig. 6: ``for i in children: for j in packets:
        send(child_i, packet_j)``.
        """
        if tree.root != self.host:
            raise ValueError(f"{self.host!r} is not the root of the tree")
        start = self.env.now if self.tracer.enabled else 0.0
        yield self.params.t_s
        children = tree.children(self.host)
        packets = packetize(message)
        if children:
            for packet in packets:
                self._track_release(packet, copies=len(children))
                self.forward_buffer.change(+1)
                if self.tracer.enabled:
                    self._log_buffer_level()
            for child in children:
                for packet in packets:
                    self.send_queue.put_nowait(
                        SendJob(packet, child, on_sent=self._release_one(packet))
                    )
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
