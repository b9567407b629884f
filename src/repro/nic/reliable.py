"""Reliable FPFS multicast over lossy channels (related work [12]).

The paper cites Verstoep, Langendoen & Bal (ICPP'96), who build a
*reliable* packetized multicast layer on the Myrinet NI.  This module
reproduces that layer's essence on our NI model and shows the synergy
the paper's §2.5 buffering implies: because a smart NI already holds
multicast packets for replication, **recovery is parent-local** — a
lost packet is retransmitted by the child's parent NI from its
forwarding buffer, never by the source host.

Mechanism (receiver-driven, NACK-based):

* :class:`LossyChannelPool` drops each delivered packet with
  probability ``loss_rate`` (seeded; control packets — NACKs — are
  never dropped, standard for tiny control traffic).
* Every NI retains the packets of a message in a retransmission buffer
  keyed by ``(msg_id, index)`` while any child may still need them.
* A receiver detects a *gap* (packet ``j`` arrives while ``i < j`` is
  missing) and NACKs its parent for the missing indices; because
  wormhole routes are fixed, per-message arrivals are otherwise
  in-order.
* Tail losses (the last packets of a message) produce no gap, so each
  receiver arms a quiet-period timer after every arrival; if the
  message is incomplete when the timer fires, it NACKs all missing
  indices and re-arms.

The ``bench_ext_reliable`` benchmark measures the latency cost of
reliability as the loss rate grows; delivery remains exactly-once at
every destination (asserted by the simulator's duplicate detection and
completion check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..network.links import ChannelPool
from ..network.topology import Node
from ..sim import Environment, Timeout
from .fpfs import FPFSInterface
from .interface import SendJob
from .packets import Message, Packet

__all__ = ["LossyChannelPool", "Nack", "ReliableFPFSInterface"]


class LossyChannelPool(ChannelPool):
    """Channel pool whose deliveries fail with probability ``loss_rate``.

    The loss draw happens once per packet transmission (the packet is
    corrupted/dropped at the receiving NI), not per channel hop, which
    matches the link-level CRC-drop behaviour [12] recovers from.
    """

    def __init__(self, env: Environment, loss_rate: float, seed: int = 0) -> None:
        super().__init__(env)
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self.dropped = 0

    def should_drop(self, payload: object) -> bool:
        """One loss draw; NACK control packets are never dropped."""
        if isinstance(payload, Nack):
            return False
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return True
        return False


@dataclass(frozen=True)
class Nack:
    """Control packet: 'resend these indices of message msg_id to me'."""

    msg_id: int
    indices: Tuple[int, ...]
    requester: Node


class ReliableFPFSInterface(FPFSInterface):
    """FPFS NI with NACK-based parent-local loss recovery.

    Use with a :class:`LossyChannelPool`; with an ordinary pool it
    degenerates to plain FPFS (plus idle timers).
    """

    #: Quiet period (µs) before an incomplete message triggers NACKs.
    NACK_TIMEOUT = 40.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Retransmission store: everything this NI has seen or injected.
        self._retain: Dict[Tuple[int, int], Packet] = {}
        # Expected message lengths (from the first packet's header).
        self._expected: Dict[int, Message] = {}
        # Timer generation per message: bumping it cancels older timers.
        self._timer_generation: Dict[int, int] = {}
        self._nacked_once: Set[Tuple[int, int]] = set()

    # -- send path ------------------------------------------------------------
    def _send_engine(self):
        """As the base engine, but applies the pool's loss draw."""
        while True:
            job: SendJob = yield self.send_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.send_gate(job)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield Timeout(self.env, self.params.t_ns)
            route = self.router.route(self.host, job.destination)
            yield from self._transmit(self.env, self.pool, route, self.params)
            delivered = True
            if self.fault_gate is not None:
                delivered = not (yield from self.fault_gate.link_gate(route, job))
            if self.trace.enabled:
                self.trace.log(
                    "ni_send",
                    src=self.host,
                    dst=job.destination,
                    msg=getattr(job.packet, "message", None) and job.packet.message.msg_id,
                    pkt=getattr(job.packet, "index", None),
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "send",
                    self.obs_track,
                    start,
                    self.env.now,
                    cat="ni",
                    args={
                        "dst": str(job.destination),
                        "pkt": getattr(job.packet, "index", None),
                    },
                )
            if job.on_sent is not None:
                job.on_sent()
            dropped = isinstance(self.pool, LossyChannelPool) and self.pool.should_drop(
                job.packet
            )
            if delivered and not dropped:
                self.registry.lookup(job.destination).recv_queue.put_nowait(job.packet)

    # -- receive path ------------------------------------------------------------
    def _recv_engine(self):
        while True:
            payload = yield self.recv_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.recv_gate(payload)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield Timeout(self.env, self.params.t_nr)
            if isinstance(payload, Nack):
                self._handle_nack(payload)
                continue
            packet: Packet = payload
            key = (packet.message.msg_id, packet.index)
            if key in self.received_at:
                # Duplicate from a retransmission race: drop silently.
                continue
            self.received_at[key] = self.env.now
            if self.delivery_listener is not None:
                self.delivery_listener(self, packet)
            if self.trace.enabled:
                self.trace.log(
                    "ni_recv", host=self.host, msg=packet.message.msg_id, pkt=packet.index
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "recv",
                    self.obs_track,
                    start,
                    self.env.now,
                    cat="ni",
                    args={"msg": packet.message.msg_id, "pkt": packet.index},
                )
            self._retain[key] = packet
            self._expected.setdefault(packet.message.msg_id, packet.message)
            self._check_gap(packet)
            self._arm_timer(packet.message)
            self.on_packet(packet)

    def inject_multicast(self, tree, message: Message):
        """Source side: also populate the retransmission store."""
        from .packets import packetize

        for packet in packetize(message):
            self._retain[(message.msg_id, packet.index)] = packet
        self._expected[message.msg_id] = message
        result = yield from super().inject_multicast(tree, message)
        return result

    # -- loss recovery ------------------------------------------------------------
    def _missing_indices(self, message: Message, below: int) -> Tuple[int, ...]:
        return tuple(
            i
            for i in range(below)
            if (message.msg_id, i) not in self.received_at
        )

    def _parent_of(self, msg_id: int) -> Node:
        """The node that forwards this message to us (tree parent)."""
        ni_parent = self._tree_parents.get(msg_id)
        if ni_parent is None:
            raise RuntimeError(f"no parent registered for message {msg_id} at {self.host!r}")
        return ni_parent

    @property
    def _tree_parents(self) -> Dict[int, Node]:
        if not hasattr(self, "_tree_parents_store"):
            self._tree_parents_store: Dict[int, Node] = {}
        return self._tree_parents_store

    def register_parent(self, msg_id: int, parent: Node) -> None:
        """Installed by the reliable simulator alongside ``forwarding``."""
        self._tree_parents[msg_id] = parent

    def _check_gap(self, packet: Packet) -> None:
        missing = self._missing_indices(packet.message, packet.index)
        fresh = [
            i for i in missing if (packet.message.msg_id, i) not in self._nacked_once
        ]
        if fresh:
            for i in fresh:
                self._nacked_once.add((packet.message.msg_id, i))
            self._send_nack(packet.message.msg_id, tuple(fresh))

    def _arm_timer(self, message: Message) -> None:
        if self.message_complete(message):
            return
        gen = self._timer_generation.get(message.msg_id, 0) + 1
        self._timer_generation[message.msg_id] = gen
        self.env.process(
            self._timeout_watch(message, gen), name=f"nack-timer@{self.host}"
        )

    def _timeout_watch(self, message: Message, generation: int):
        yield Timeout(self.env, self.NACK_TIMEOUT)
        if self._timer_generation.get(message.msg_id) != generation:
            return  # superseded by a newer arrival
        if self.message_complete(message):
            return
        missing = self._missing_indices(message, message.num_packets)
        if missing:
            self._send_nack(message.msg_id, missing)
            self._arm_timer(message)

    def _send_nack(self, msg_id: int, indices: Tuple[int, ...]) -> None:
        parent = self._parent_of(msg_id)
        if self.trace.enabled:
            self.trace.log("nack", host=self.host, msg=msg_id, indices=indices)
        if self.tracer.enabled:
            self.tracer.instant(
                "nack", self.obs_track, cat="ni", args={"msg": msg_id, "n": len(indices)}
            )
        self.send_queue.put_nowait(SendJob(Nack(msg_id, indices, self.host), parent))

    def _handle_nack(self, nack: Nack) -> None:
        if self.trace.enabled:
            self.trace.log(
                "retransmit", host=self.host, msg=nack.msg_id, indices=nack.indices
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "retransmit",
                self.obs_track,
                cat="ni",
                args={"msg": nack.msg_id, "n": len(nack.indices)},
            )
        for index in nack.indices:
            packet = self._retain.get((nack.msg_id, index))
            if packet is None:
                # Not here yet (we lost it too): our own recovery will
                # fetch it, and the child's timer will re-ask.
                continue
            self.send_queue.put_nowait(SendJob(packet, nack.requester))
