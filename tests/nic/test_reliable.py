"""ReliableFPFSInterface mechanics: happy path, gap NACKs, tail timers.

The mcast-level suite (tests/mcast/test_reliable.py) checks end-state
properties under random loss; here the loss is *scripted* per packet
index so each recovery path — gap-triggered NACK, timer-triggered tail
NACK, duplicate suppression, retransmission store — is exercised
deterministically and observed in the tracer's ``nack`` and
``retransmit`` instants.
"""

from __future__ import annotations

import pytest

from repro.core import build_kbinomial_tree
from repro.mcast import ReliableMulticastSimulator, chain_for
from repro.mcast.orderings import cco_ordering
from repro.network import UpDownRouter, build_irregular_network
from repro.nic.reliable import LossyChannelPool, Nack, ReliableFPFSInterface
from repro.obs import Tracer
from repro.sim import Environment

from .helpers import ni_events


class ScriptedLossPool(LossyChannelPool):
    """Drops each packet index in ``drop_once`` exactly once."""

    def __init__(self, env, drop_once, seed: int = 0) -> None:
        super().__init__(env, loss_rate=0.5, seed=seed)  # rate unused below
        self._drop_once = set(drop_once)

    def should_drop(self, payload) -> bool:
        if isinstance(payload, Nack):
            return False
        index = getattr(payload, "index", None)
        if index in self._drop_once:
            self._drop_once.discard(index)
            self.dropped += 1
            return True
        return False


class ScriptedLossSimulator(ReliableMulticastSimulator):
    """Reliable simulator with a scripted (per-index) loss plan."""

    def __init__(self, topology, router, drop_once, **kwargs):
        super().__init__(topology, router, loss_rate=0.0, **kwargs)
        self._drop_once = tuple(drop_once)

    def _make_pool(self, env):
        self._current_pool = ScriptedLossPool(env, self._drop_once)
        return self._current_pool


@pytest.fixture(scope="module")
def fabric():
    topology = build_irregular_network(n_switches=4, switch_ports=6, hosts_per_switch=2, seed=3)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    chain = chain_for(ordering[0], list(ordering[1:6]), ordering)
    tree = build_kbinomial_tree(chain, 2)
    return topology, router, tree


class TestHappyPath:
    def test_no_loss_no_recovery_traffic(self, fabric):
        topology, router, tree = fabric
        tracer = Tracer()
        sim = ScriptedLossSimulator(topology, router, drop_once=(), tracer=tracer)
        result = sim.run(tree, 4)
        assert sim.last_dropped == 0
        assert not ni_events(tracer, "nack")
        assert not ni_events(tracer, "retransmit")
        assert len(result.destination_completion) == 5

    def test_retransmission_store_holds_all_packets(self, fabric):
        topology, router, tree = fabric
        sim = ScriptedLossSimulator(topology, router, drop_once=())
        sim.run(tree, 3)
        # Every NI that saw the message retains all of it, keyed by index.
        for ni in sim.last_registry:
            assert isinstance(ni, ReliableFPFSInterface)
            if ni.host in tree and ni.received_at:
                retained = {index for (_, index) in ni._retain}
                assert retained == {0, 1, 2}


class TestDropPaths:
    def test_gap_loss_triggers_nack_and_recovers(self, fabric):
        # Drop packet 1 once: some receiver sees packet 2 with 1
        # missing — a gap — and must NACK exactly the missing index.
        topology, router, tree = fabric
        tracer = Tracer()
        sim = ScriptedLossSimulator(topology, router, drop_once=(1,), tracer=tracer)
        result = sim.run(tree, 4)  # completion is verified by the collector
        assert sim.last_dropped == 1
        nacks = ni_events(tracer, "nack")
        assert nacks and all(1 in e.args["indices"] for _, e in nacks)
        retransmits = ni_events(tracer, "retransmit")
        assert retransmits and all(1 in e.args["indices"] for _, e in retransmits)
        assert len(result.destination_completion) == 5

    def test_tail_loss_recovered_by_timer_not_gap(self, fabric):
        # Dropping the last packet produces no gap; only the quiet-period
        # timer can notice, so recovery costs at least NACK_TIMEOUT.
        topology, router, tree = fabric
        m = 4
        clean = ScriptedLossSimulator(topology, router, drop_once=())
        tracer = Tracer()
        lossy = ScriptedLossSimulator(topology, router, drop_once=(m - 1,), tracer=tracer)
        baseline = clean.run(tree, m).latency
        recovered = lossy.run(tree, m)
        assert lossy.last_dropped == 1
        nacks = ni_events(tracer, "nack")
        assert nacks and all(m - 1 in e.args["indices"] for _, e in nacks)
        assert recovered.latency >= baseline + ReliableFPFSInterface.NACK_TIMEOUT

    def test_duplicate_retransmissions_are_dropped_silently(self, fabric):
        # Dropping an early packet at high fan-out can draw NACKs from
        # several children; the parent answers each, and any duplicate
        # arrivals must be absorbed (plain FPFS NIs would raise).
        topology, router, tree = fabric
        sim = ScriptedLossSimulator(topology, router, drop_once=(0, 2))
        result = sim.run(tree, 4)
        assert sim.last_dropped == 2
        assert len(result.destination_completion) == 5
        for completion in result.destination_completion.values():
            assert completion > 0


class TestInterfaceInternals:
    def test_parent_lookup_requires_registration(self):
        # The NACK target is the registered NI whose forwarding table
        # sends the message to this host.
        from repro.network.links import ChannelPool
        from repro.nic.interface import NICRegistry
        from repro.params import PAPER_PARAMS

        env = Environment()
        registry = NICRegistry()
        pool = ChannelPool(env)
        ni = ReliableFPFSInterface(env, "h0", None, registry, pool, PAPER_PARAMS)
        parent = ReliableFPFSInterface(env, "h1", None, registry, pool, PAPER_PARAMS)
        with pytest.raises(RuntimeError, match="no NI forwards message 42"):
            ni._parent_of(42)
        parent.forwarding[42] = ("h2", "h0")
        assert ni._parent_of(42) == "h1"

    def test_nack_is_a_value_object(self):
        a = Nack(7, (1, 2), "h3")
        assert a.msg_id == 7 and a.indices == (1, 2) and a.requester == "h3"
        assert a == Nack(7, (1, 2), "h3")
