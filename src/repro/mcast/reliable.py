"""Reliable multicast simulation over lossy channels (extension, [12]).

:class:`ReliableMulticastSimulator` wires
:class:`~repro.nic.reliable.ReliableFPFSInterface` NIs to a
:class:`~repro.nic.reliable.LossyChannelPool` and puts a
:class:`~repro.nic.reliable.LossGate` in every NI's ``fault_gate``
slot, so loss is a link fault on the base NI engines.  NACKs find
their target in the forwarding tables the base simulator installs.
Every run is verified complete by the base collector (all
destinations hold all packets), so a failed recovery protocol cannot
masquerade as a fast one — the run would error out instead.
"""

from __future__ import annotations

from typing import Optional

from ..network.topology import Topology
from ..nic.reliable import LossGate, LossyChannelPool, ReliableFPFSInterface
from ..obs.tracer import Tracer
from ..params import PAPER_PARAMS, SystemParams
from ..sim import Environment
from .simulator import MulticastSimulator

__all__ = ["ReliableMulticastSimulator"]


class ReliableMulticastSimulator(MulticastSimulator):
    """Multicast simulation with packet loss and NACK recovery.

    Parameters
    ----------
    loss_rate:
        Probability a transmitted data packet is dropped at the
        receiver (control packets are never dropped).
    loss_seed:
        Seed for the loss draws (deterministic runs).
    tracer:
        A :class:`repro.obs.Tracer`; reliable NIs add ``nack`` and
        ``retransmit`` instants to the spans every NI records.
    """

    def __init__(
        self,
        topology: Topology,
        router,
        params: SystemParams = PAPER_PARAMS,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        tracer: Optional[Tracer] = None,
        host_speed=None,
    ) -> None:
        super().__init__(
            topology,
            router,
            params=params,
            ni_class=ReliableFPFSInterface,
            host_speed=host_speed,
            tracer=tracer,
        )
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self.loss_seed = loss_seed
        #: Dropped-packet count of the most recent run.
        self.last_dropped: Optional[int] = None
        self._current_pool: Optional[LossyChannelPool] = None

    def _make_pool(self, env: Environment) -> LossyChannelPool:
        self._current_pool = LossyChannelPool(env, self.loss_rate, seed=self.loss_seed)
        return self._current_pool

    def _post_build(self, env, registry, pool) -> None:
        # Every NI runs behind the gate, and a NACK may go to any parent.
        registry.build_all()
        gate = LossGate(pool)
        for ni in registry:
            ni.fault_gate = gate

    def run_many(self, multicasts, time_limit=None):
        results = super().run_many(multicasts, time_limit=time_limit)
        self.last_dropped = self._current_pool.dropped if self._current_pool else 0
        return results
