"""Simulator performance: event-processing throughput.

Unlike the figure benches (one-shot regenerations), these use
pytest-benchmark's repeated timing to track the DES engine's speed —
the practical limit on how large a REPRO_FULL protocol can get.  Two
shapes: full broadcasts, where every NI of the 64-host testbed works,
and sparse multicasts (15 destinations, the ``sim_sessions`` session
size), where a fabric builds only the NIs its tree touches.
"""

from __future__ import annotations

from repro import (
    MulticastSimulator,
    UpDownRouter,
    build_irregular_network,
    build_kbinomial_tree,
    cco_ordering,
    chain_for,
    optimal_k,
)
from repro.sessions import sessions_point


def _setup():
    topology = build_irregular_network(seed=0)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    chain = chain_for(ordering[0], list(ordering[1:]), ordering)
    simulator = MulticastSimulator(topology, router)
    return simulator, chain


def test_perf_broadcast_8pkt(benchmark):
    """Full 63-destination broadcast, 8 packets (504 NI sends)."""
    simulator, chain = _setup()
    tree = build_kbinomial_tree(chain, 2)
    result = benchmark(simulator.run, tree, 8)
    assert result.latency > 0


def test_perf_broadcast_32pkt(benchmark):
    """Stress case: 63 destinations x 32 packets (2,016 NI sends)."""
    simulator, chain = _setup()
    tree = build_kbinomial_tree(chain, 2)
    result = benchmark.pedantic(simulator.run, args=(tree, 32), rounds=3, iterations=1)
    assert result.latency > 0


def test_perf_sparse_multicast_8pkt(benchmark):
    """15 of the 63 destinations, 8 packets (120 NI sends, 16 NIs built)."""
    simulator, chain = _setup()
    sparse = chain[:16]
    tree = build_kbinomial_tree(sparse, optimal_k(len(sparse), 8))
    result = benchmark(simulator.run, tree, 8)
    assert len(result.destination_completion) == 15
    assert len(list(simulator.last_registry)) == 16


def test_perf_sessions_point(benchmark):
    """One ``sim_sessions`` operation: 10 batch sessions x 15 dests x 8
    packets, two at a time, each also run alone for its slowdown."""
    record = benchmark.pedantic(
        sessions_point,
        args=("fifo", 2.0, 0),
        kwargs=dict(arrival="batch", count=10, dests=15, m=8, max_active=2, measure_isolated=True),
        rounds=3,
        iterations=1,
    )
    assert record["completed"] == 10


def test_perf_route_computation(benchmark):
    """Cold-cache all-pairs route computation on one topology."""
    topology = build_irregular_network(seed=3)

    def compute():
        router = UpDownRouter(topology)
        hosts = topology.hosts
        for a in hosts[:16]:
            for b in hosts[16:32]:
                router.route(a, b)
        return router

    router = benchmark(compute)
    assert router.hop_count(topology.hosts[0], topology.hosts[20]) >= 2
