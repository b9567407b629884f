"""A finished fabric is freed by reference counting (mcast tier).

Once a run's results are collected, the simulator closes the fabric's
parked NI engines and drops the references that made it cyclic (NI to
registry, route cache, listener and fault gate; the registry's
factory; channel to pool; the sessions arbiter's ``start_session``
closure).  So with the garbage collector off, a broadcast, a
``sessions_point`` and a reliable run leave nothing for
``gc.collect()`` — while what a finished run is read for stays
readable: ``last_registry``, ``last_arbiter``, every built NI's
``received_at`` and the pool's counters.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import build_kbinomial_tree, optimal_k
from repro.mcast.orderings import cco_ordering, chain_for
from repro.mcast.reliable import ReliableMulticastSimulator
from repro.mcast.simulator import MulticastSimulator
from repro.network.updown import UpDownRouter
from repro.sessions import SessionSimulator
from repro.sessions.sweep import sessions_point


@pytest.fixture
def collector_off():
    """Collect first, then keep the cyclic collector off for the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def fabrics(monkeypatch):
    """Every ``(env, tracer, pool, registry)`` the simulators build."""
    built = []
    build = MulticastSimulator._build_network

    def keep(simulator):
        fabric = build(simulator)
        built.append(fabric)
        return fabric

    monkeypatch.setattr(MulticastSimulator, "_build_network", keep)
    return built


def broadcast_inputs(topology, m: int, width=None):
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    source = ordering[3]
    others = [h for h in ordering if h != source][:width]
    chain = chain_for(source, others, ordering)
    return router, build_kbinomial_tree(chain, optimal_k(len(chain), m))


def fabric_reads(fabrics):
    """The reads the benchmark's fabric tally makes after a run."""
    deliveries = acquisitions = 0
    blocked = 0.0
    for _env, _tracer, pool, registry in fabrics:
        deliveries += sum(len(ni.received_at) for ni in registry)
        acquisitions += sum(pool.acquisitions.values())
        blocked += pool.total_blocked_time
    return deliveries, acquisitions, blocked


def test_broadcast_leaves_no_cyclic_garbage(paper_topology, fabrics, collector_off):
    router, tree = broadcast_inputs(paper_topology, 32)
    simulator = MulticastSimulator(paper_topology, router)
    result = simulator.run(tree, 32)
    assert sum(len(ni.received_at) for ni in simulator.last_registry) == 63 * 32
    del simulator
    deliveries, acquisitions, blocked = fabric_reads(fabrics)
    assert deliveries == 63 * 32
    assert acquisitions > 0
    assert blocked == result.blocked_time
    assert gc.collect() == 0


def test_sessions_point_leaves_no_cyclic_garbage(collector_off):
    record = sessions_point("cda", 0.5, 3, arrival="batch", max_active=2)
    assert record["completed"] == 10
    assert gc.collect() == 0


def test_session_records_stay_readable(paper_topology, collector_off):
    from repro.sessions import Session

    router = UpDownRouter(paper_topology)
    ordering = cco_ordering(paper_topology, router)
    sessions = [
        Session(
            source=ordering[i],
            destinations=tuple(ordering[8 + 4 * i : 12 + 4 * i]),
            num_packets=4,
            session_id=i,
        )
        for i in range(3)
    ]
    simulator = SessionSimulator(paper_topology, router, ordering, max_active=1)
    simulator.run_sessions(sessions)
    arbiter = simulator.last_arbiter
    assert [kind for _, kind, _ in arbiter.log].count("complete") == 3
    assert arbiter.work_conservation_violations() == []
    assert arbiter.start_session is None
    assert all(ni.delivery_listener is None for ni in simulator.last_registry)
    del simulator, arbiter
    assert gc.collect() == 0


@pytest.mark.parametrize("loss_rate", [0.0, 0.1])
def test_reliable_run_leaves_no_cyclic_garbage(paper_topology, fabrics, collector_off, loss_rate):
    router, tree = broadcast_inputs(paper_topology, 8, width=15)
    simulator = ReliableMulticastSimulator(paper_topology, router, loss_rate=loss_rate)
    simulator.run(tree, 8)
    assert (simulator.last_dropped > 0) == (loss_rate > 0)
    del simulator
    deliveries, _, _ = fabric_reads(fabrics)
    assert deliveries == 15 * 8
    assert gc.collect() == 0


def test_a_released_registry_builds_nothing(paper_topology):
    router, tree = broadcast_inputs(paper_topology, 2, width=3)
    simulator = MulticastSimulator(paper_topology, router)
    simulator.run(tree, 2)
    registry = simulator.last_registry
    idle = next(h for h in paper_topology.hosts if registry.get(h) is None)
    with pytest.raises(KeyError):
        registry.lookup(idle)
    assert registry.lookup(tree.root).received_at == {}
