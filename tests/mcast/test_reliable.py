"""Reliable multicast over lossy channels (extension, [12])."""

from __future__ import annotations

import pytest

from repro.core import build_kbinomial_tree
from repro.mcast import ReliableMulticastSimulator, chain_for
from repro.nic import LossyChannelPool, Nack
from repro.obs import Tracer
from repro.sim import Environment

from ..nic.helpers import ni_events


@pytest.fixture(scope="module")
def scenario(paper_topology, paper_router, paper_ordering):
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:17]), paper_ordering)
    tree = build_kbinomial_tree(chain, 2)
    return paper_topology, paper_router, tree


class TestLossyChannelPool:
    def test_loss_rate_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            LossyChannelPool(env, 1.0)
        with pytest.raises(ValueError):
            LossyChannelPool(env, -0.1)

    def test_zero_rate_never_drops(self):
        pool = LossyChannelPool(Environment(), 0.0)
        assert not any(pool.should_drop(object()) for _ in range(500))

    def test_nacks_never_dropped(self):
        pool = LossyChannelPool(Environment(), 0.9, seed=1)
        nack = Nack(1, (0,), ("host", 0))
        assert not any(pool.should_drop(nack) for _ in range(200))

    def test_drop_counting_and_determinism(self):
        a = LossyChannelPool(Environment(), 0.3, seed=7)
        b = LossyChannelPool(Environment(), 0.3, seed=7)
        draws_a = [a.should_drop(object()) for _ in range(300)]
        draws_b = [b.should_drop(object()) for _ in range(300)]
        assert draws_a == draws_b
        assert a.dropped == sum(draws_a)
        assert 40 < a.dropped < 140  # ~90 expected


class TestReliableSimulator:
    def test_loss_rate_validation(self, scenario):
        topology, router, _ = scenario
        with pytest.raises(ValueError):
            ReliableMulticastSimulator(topology, router, loss_rate=1.5)

    def test_zero_loss_matches_plain_fpfs_shape(self, scenario):
        topology, router, tree = scenario
        from repro.mcast import MulticastSimulator

        reliable = ReliableMulticastSimulator(topology, router, loss_rate=0.0)
        plain = MulticastSimulator(topology, router)
        r = reliable.run(tree, 8)
        p = plain.run(tree, 8)
        assert reliable.last_dropped == 0
        assert r.latency == pytest.approx(p.latency)

    @pytest.mark.parametrize("rate", [0.02, 0.08, 0.2])
    def test_all_packets_delivered_despite_loss(self, scenario, rate):
        topology, router, tree = scenario
        sim = ReliableMulticastSimulator(topology, router, loss_rate=rate, loss_seed=5)
        result = sim.run(tree, 8)  # _collect raises if anything is missing
        assert sim.last_dropped > 0
        assert len(result.destination_completion) == 16

    def test_latency_degrades_gracefully_with_loss(self, scenario):
        topology, router, tree = scenario
        latencies = []
        for rate in (0.0, 0.05, 0.2):
            sim = ReliableMulticastSimulator(topology, router, loss_rate=rate, loss_seed=5)
            latencies.append(sim.run(tree, 8).latency)
        assert latencies == sorted(latencies)
        # Even 20% loss stays within ~4x of lossless.
        assert latencies[-1] < 4 * latencies[0]

    def test_deterministic_per_seed(self, scenario):
        topology, router, tree = scenario
        runs = [
            ReliableMulticastSimulator(topology, router, loss_rate=0.1, loss_seed=9)
            .run(tree, 8)
            .latency
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_recovery_is_parent_local(self, scenario):
        # Retransmissions come from tree parents, not the source host:
        # the tracer shows 'retransmit' instants at intermediate NIs.
        topology, router, tree = scenario
        tracer = Tracer()
        sim = ReliableMulticastSimulator(
            topology, router, loss_rate=0.15, loss_seed=11, tracer=tracer
        )
        sim.run(tree, 8)
        retransmitters = {h for h, _ in ni_events(tracer, "retransmit")}
        interior = {str(n) for n in tree.nodes() if tree.fanout(n) and n != tree.root}
        assert retransmitters & interior, "expected some parent-local recovery"

    def test_tail_loss_recovered_by_timer(self, scenario):
        # Force a loss pattern, run enough packets that some final
        # packets drop; completion still achieved (timer-driven NACKs).
        topology, router, tree = scenario
        sim = ReliableMulticastSimulator(topology, router, loss_rate=0.25, loss_seed=13)
        result = sim.run(tree, 4)
        assert result.completion_time > 0


#: Lossy seed-0 runs frozen from the validated build: (loss rate, loss
#: seed) -> (latency µs, packets dropped, NACKs, retransmissions).  Exact
#: pins, as in tests/test_golden.py: any change to the reliable NI or
#: the engines it runs on that moves a lossy run's numbers must be
#: noticed and re-baselined.
GOLDEN_LOSSY = {
    (0.05, 1): (220.40000000000006, 24, 70, 70),
    (0.1, 5): (211.40000000000012, 29, 65, 65),
    (0.25, 13): (412.3999999999995, 103, 117, 117),
}


@pytest.fixture(scope="module")
def seed0_tree():
    from repro.core import optimal_k
    from repro.mcast import cco_ordering
    from repro.network import UpDownRouter, build_irregular_network

    topology = build_irregular_network(seed=0)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    chain = chain_for(ordering[0], list(ordering[1:32]), ordering)
    return topology, router, build_kbinomial_tree(chain, optimal_k(len(chain), 8))


@pytest.mark.parametrize("loss, seed", sorted(GOLDEN_LOSSY))
def test_golden_lossy_run(seed0_tree, loss, seed):
    topology, router, tree = seed0_tree
    tracer = Tracer()
    sim = ReliableMulticastSimulator(
        topology, router, loss_rate=loss, loss_seed=seed, tracer=tracer
    )
    latency = sim.run(tree, 8).latency
    names = [e.name for e in tracer.events]
    observed = (latency, sim.last_dropped, names.count("nack"), names.count("retransmit"))
    assert observed == GOLDEN_LOSSY[loss, seed]
