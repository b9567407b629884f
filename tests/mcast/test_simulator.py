"""End-to-end MulticastSimulator behaviour and cross-model validation."""

from __future__ import annotations

import pytest

from repro.core import (
    build_binomial_tree,
    build_kbinomial_tree,
    build_linear_tree,
    fpfs_total_steps,
    optimal_k,
)
from repro.mcast import MulticastSimulator, chain_for
from repro.network import host
from repro.obs import Tracer
from repro.params import SystemParams


@pytest.fixture
def sim(small_topology, small_router, fast_params):
    return MulticastSimulator(small_topology, small_router, params=fast_params)


def small_chain(small_topology, n):
    hosts = sorted(small_topology.hosts, key=lambda h: h[1])
    return hosts[:n]


class TestBasics:
    def test_result_consistency(self, sim, small_topology):
        chain = small_chain(small_topology, 6)
        result = sim.run(build_kbinomial_tree(chain, 2), 4)
        assert result.completion_time == max(result.packet_completion)
        assert result.completion_time == max(result.destination_completion.values())
        assert result.latency == result.completion_time + sim.params.t_r
        assert result.message.num_packets == 4
        assert len(result.destination_completion) == 5

    def test_tree_with_foreign_host_rejected(self, sim):
        tree = build_linear_tree([host(0), host(999)])
        with pytest.raises(ValueError, match="not a host"):
            sim.run(tree, 1)

    def test_zero_packets_rejected(self, sim, small_topology):
        chain = small_chain(small_topology, 3)
        with pytest.raises(ValueError):
            sim.run(build_linear_tree(chain), 0)

    def test_deterministic_runs(self, sim, small_topology):
        chain = small_chain(small_topology, 8)
        tree = build_kbinomial_tree(chain, 2)
        a = sim.run(tree, 6)
        b = sim.run(tree, 6)
        assert a.latency == b.latency
        assert a.packet_completion == b.packet_completion

    def test_trace_collection_toggle(self, small_topology, small_router, fast_params):
        chain = small_chain(small_topology, 4)
        tree = build_linear_tree(chain)
        quiet = MulticastSimulator(small_topology, small_router, params=fast_params)
        quiet.run(tree, 2)
        assert quiet.tracer is None
        tracer = Tracer()
        loud = MulticastSimulator(small_topology, small_router, params=fast_params, tracer=tracer)
        loud.run(tree, 2)
        assert any(e.name == "send" for e in tracer.events)

    def test_send_count_matches_tree_edges_times_packets(
        self, small_topology, small_router, fast_params
    ):
        chain = small_chain(small_topology, 7)
        tree = build_kbinomial_tree(chain, 3)
        tracer = Tracer()
        sim = MulticastSimulator(small_topology, small_router, params=fast_params, tracer=tracer)
        m = 3
        sim.run(tree, m)
        n_edges = sum(1 for _ in tree.edges())
        names = [e.name for e in tracer.events]
        assert names.count("send") == n_edges * m
        assert names.count("recv") == n_edges * m


class TestAgainstStepModel:
    """On a contention-light fabric the DES must track the step model."""

    def test_completion_ordering_matches_schedule_ordering(self, sim, small_topology):
        # Trees with fewer exact steps are not slower in the DES.
        chain = small_chain(small_topology, 8)
        m = 6
        by_steps = sorted(
            (fpfs_total_steps(t, m), i, t)
            for i, t in enumerate(
                [
                    build_kbinomial_tree(chain, optimal_k(len(chain), m)),
                    build_binomial_tree(chain),
                ]
            )
        )
        latencies = [sim.run(t, m).latency for _, _, t in by_steps]
        assert latencies == sorted(latencies)

    def test_single_hop_exact_time(self, small_topology, small_router, fast_params):
        # One destination on the same switch: fully analytic check.
        sim = MulticastSimulator(small_topology, small_router, params=fast_params)
        h0, h1 = small_chain(small_topology, 2)
        if small_topology.host_switch(h0) != small_topology.host_switch(h1):
            pytest.skip("generator placed hosts 0/1 on different switches")
        result = sim.run(build_linear_tree([h0, h1]), 1)
        expected = (
            fast_params.t_s
            + fast_params.t_ns
            + 2 * fast_params.t_switch
            + fast_params.wire_time
            + fast_params.t_nr
        )
        assert result.completion_time == pytest.approx(expected)

    def test_packet_intervals_near_theorem1(self, paper_topology, paper_router, paper_ordering):
        # On the paper fabric with CCO (low contention), completion
        # intervals cluster around k_T * per-send time.
        sim = MulticastSimulator(paper_topology, paper_router)
        src = paper_ordering[0]
        chain = chain_for(src, [h for h in paper_ordering[1:33]], paper_ordering)
        tree = build_kbinomial_tree(chain, 2)
        result = sim.run(tree, 8)
        intervals = result.packet_intervals
        assert max(intervals) <= 1.5 * min(intervals)  # near-constant lag


class TestBlockedTime:
    def test_linear_tree_has_minimal_blocking(self, sim, small_topology):
        chain = small_chain(small_topology, 6)
        result = sim.run(build_linear_tree(chain), 4)
        # One message in flight per step: channel conflicts only between
        # consecutive pipeline stages sharing links.
        assert result.blocked_time >= 0.0

    def test_blocking_increases_with_fanout_pressure(
        self, paper_topology, paper_router, paper_ordering
    ):
        from repro.core import build_flat_tree

        sim = MulticastSimulator(paper_topology, paper_router)
        src = paper_ordering[0]
        chain = chain_for(src, list(paper_ordering[1:40]), paper_ordering)
        flat = sim.run(build_flat_tree(chain), 4)
        kbin = sim.run(build_kbinomial_tree(chain, 2), 4)
        # Flat tree hammers the source's injection link.
        assert flat.latency > kbin.latency
