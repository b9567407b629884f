"""Reliable FPFS multicast over lossy channels (related work [12]).

The paper cites Verstoep, Langendoen & Bal (ICPP'96), who build a
*reliable* packetized multicast layer on the Myrinet NI.  This module
reproduces that layer's essence on our NI model and shows the synergy
the paper's §2.5 buffering implies: because a smart NI already holds
multicast packets for replication, **recovery is parent-local** — a
lost packet is retransmitted by the child's parent NI from its
forwarding buffer, never by the source host.

The reliable NI is the FPFS NI plus recovery; it runs the base NI's
one send loop and one receive loop (:mod:`repro.nic.interface`).

Mechanism (receiver-driven, NACK-based):

* Loss is a link fault: :class:`LossGate` sits in the NI's
  ``fault_gate`` slot and its ``link_gate`` makes the
  :class:`LossyChannelPool`'s one loss draw per transmission (seeded;
  control packets — NACKs — are never dropped, standard for tiny
  control traffic).
* Every NI retains the packets of a message in a retransmission buffer
  keyed by ``(msg_id, index)`` while any child may still need them.
* A receiver detects a *gap* (packet ``j`` arrives while ``i < j`` is
  missing) and NACKs its parent for the missing indices; because
  wormhole routes are fixed, per-message arrivals are otherwise
  in-order.  The parent is the NI whose forwarding table lists this
  host for the message — the tables the simulator installs anyway.
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
from ..sim import Environment
from .fpfs import FPFSInterface
from .interface import SendJob
from .packets import Message, Packet, packetize

__all__ = ["LossGate", "LossyChannelPool", "Nack", "ReliableFPFSInterface"]


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


class LossGate:
    """``fault_gate`` of a lossy fabric (the ``NIFaultGate`` contract):
    one loss draw per transmission, never a stall."""

    def __init__(self, pool: LossyChannelPool) -> None:
        self.pool = pool

    def send_gate(self, payload):
        """Never drops, never stalls."""
        yield from ()
        return False

    recv_gate = send_gate

    def link_gate(self, route, job):
        """The pool's loss draw for this transmission."""
        yield from ()
        return self.pool.should_drop(job.packet)


@dataclass(frozen=True)
class Nack:
    """Control packet: 'resend these indices of message msg_id to me'."""

    msg_id: int
    indices: Tuple[int, ...]
    requester: Node


class ReliableFPFSInterface(FPFSInterface):
    """FPFS NI with NACK-based parent-local loss recovery.

    Run it behind a :class:`LossGate`; on a loss-free fabric it
    degenerates to plain FPFS (plus idle timers).
    """

    #: Quiet period (µs) before an incomplete message triggers NACKs.
    NACK_TIMEOUT = 40.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Retransmission store: everything this NI has seen or injected.
        self._retain: Dict[Tuple[int, int], Packet] = {}
        # Timer generation per message: bumping it cancels older timers.
        self._timer_generation: Dict[int, int] = {}
        self._nacked_once: Set[Tuple[int, int]] = set()

    # -- hooks of the base engines -------------------------------------------
    def _receive(self, payload, start: float) -> None:
        """Answer NACKs and absorb retransmission duplicates; else deliver."""
        if isinstance(payload, Nack):
            self._handle_nack(payload)
        elif (payload.message.msg_id, payload.index) not in self.received_at:
            super()._receive(payload, start)

    def on_packet(self, packet: Packet) -> None:
        """Retain, look for a gap and re-arm the tail timer, then forward."""
        self._retain[(packet.message.msg_id, packet.index)] = packet
        self._check_gap(packet)
        self._arm_timer(packet.message)
        super().on_packet(packet)

    def inject_multicast(self, tree, message: Message):
        """Source side: also populate the retransmission store."""
        for packet in packetize(message):
            self._retain[(message.msg_id, packet.index)] = packet
        return (yield from super().inject_multicast(tree, message))

    # -- loss recovery ------------------------------------------------------------
    def _missing_indices(self, message: Message, below: int) -> Tuple[int, ...]:
        return tuple(
            i
            for i in range(below)
            if (message.msg_id, i) not in self.received_at
        )

    def _parent_of(self, msg_id: int) -> Node:
        """The host whose forwarding table sends ``msg_id`` to this NI."""
        for ni in self.registry:
            if self.host in ni.forwarding.get(msg_id, ()):
                return ni.host
        raise RuntimeError(f"no NI forwards message {msg_id} to {self.host!r}")

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
        yield self.NACK_TIMEOUT
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
        if self.tracer.enabled:
            self.tracer.instant(
                "nack", self.obs_track, cat="ni", args={"msg": msg_id, "indices": indices}
            )
        self.send_queue.put_nowait(SendJob(Nack(msg_id, indices, self.host), parent))

    def _handle_nack(self, nack: Nack) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "retransmit",
                self.obs_track,
                cat="ni",
                args={"msg": nack.msg_id, "indices": nack.indices},
            )
        for index in nack.indices:
            packet = self._retain.get((nack.msg_id, index))
            if packet is None:
                # Not here yet (we lost it too): our own recovery will
                # fetch it, and the child's timer will re-ask.
                continue
            self.send_queue.put_nowait(SendJob(packet, nack.requester))
