"""Conventional NI: the host processor forwards every multicast copy (§2.3).

On reception the NI DMAs each packet up to host memory; the host
processor waits for the *complete* message (host-level store-and-
forward — it cannot parse partial messages), pays the software receive
overhead ``t_r``, and then performs one ordinary send per child in the
multicast tree: ``t_s`` start-up plus a per-packet DMA back down to the
NI send queue (Fig. 2).

This is the baseline the smart NI (FCFS/FPFS) removes: intermediate
hosts pay ``t_r + t_s`` per hop and the message cannot cut through an
intermediate node packet by packet.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.trees import MulticastTree
from .interface import NetworkInterface, SendJob
from .packets import Message, Packet, packetize

__all__ = ["ConventionalInterface"]


class ConventionalInterface(NetworkInterface):
    """NI without multicast support; forwarding runs on the host CPU."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._host_memory: Dict[int, List[Packet]] = {}

    def on_packet(self, packet: Packet) -> None:
        self.env.process(self._dma_to_host(packet), name=f"dma@{self.host}")

    def _dma_to_host(self, packet: Packet):
        yield self.params.t_dma
        msg = packet.message
        arrived = self._host_memory.setdefault(msg.msg_id, [])
        arrived.append(packet)
        if self.tracer.enabled:
            self.tracer.instant(
                "host recv", self.obs_track, cat="ni", args={"msg": msg.msg_id, "pkt": packet.index}
            )
        children = self.forwarding.get(msg.msg_id, ())
        if children and len(arrived) == msg.num_packets:
            self.env.process(
                self._host_forward(msg, list(arrived), children),
                name=f"fwd@{self.host}",
            )

    def _host_forward(self, message: Message, packets: List[Packet], children: tuple):
        """Host-level store-and-forward to each child in turn."""
        start = self.env.now if self.tracer.enabled else 0.0
        # Software overhead to receive/process the complete message.
        yield self.params.t_r
        for child in children:
            # Each forwarded copy is a full host send: start-up plus
            # per-packet DMA down to the NI.
            yield self.params.t_s
            for packet in packets:
                yield self.params.t_dma
                self.send_queue.put_nowait(SendJob(packet, child))
        if self.tracer.enabled:
            self.tracer.complete(
                "host forward",
                self.obs_track,
                start,
                self.env.now,
                cat="ni",
                args={"msg": message.msg_id, "children": len(children)},
            )

    def inject_multicast(self, tree: MulticastTree, message: Message):
        """Source side: one full host send per child of the root."""
        if tree.root != self.host:
            raise ValueError(f"{self.host!r} is not the root of the tree")
        start = self.env.now if self.tracer.enabled else 0.0
        packets = packetize(message)
        for child in tree.children(self.host):
            yield self.params.t_s
            for packet in packets:
                yield self.params.t_dma
                self.send_queue.put_nowait(SendJob(packet, child))
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
