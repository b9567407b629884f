"""Exact kernel work of one simulated broadcast and one sessions point.

Every event enters the queue through ``Environment.schedule`` and every
process wakes through ``Process._resume``; counting the calls of both
on a fixed broadcast gives deterministic work counters, so this test
pins them exactly.  The testbed is the one of
``benchmarks/bench_simulator_perf.py``: the seed-0 64-host irregular
network, a 63-destination CCO chain and a k = 2 tree.

The NIs enqueue without an event (``put_nowait``), because no process
waits on their puts.  A put event per enqueue would add 2 events per
delivered packet (one send-queue and one receive-queue enqueue): at
32 packets, 2 x 63 x 32 = 4,032 events over these budgets, with the
same resume counts, since such events wake no process.  The latencies
pin that the simulated result is the validated one.

The sessions point is the one the ``sim_sessions`` benchmark runs: 10
batch-arrival sessions of 15 destinations x 8 packets, at most 2 on
the fabric, each also run alone first for its slowdown.  On top of the
kernel counts it pins the arbiter's work, 10 admissions and one
delivery-listener call per packet the shared run delivers (10 x 15 x 8
= 1,200), and the makespan, which pins each scheduler's admission
order.  A fabric builds an NI only when a run looks it up, so each
isolated baseline builds its 16 hosts' NIs; the 48 idle NIs of each of
the 10 isolated fabrics no longer start their two engines (2 events and
2 resumes each, 960 of both).  The shared run builds every NI, for the
arbiter's delivery listener.
"""

from __future__ import annotations

import pytest

from repro import (
    MulticastSimulator,
    UpDownRouter,
    build_irregular_network,
    build_kbinomial_tree,
    cco_ordering,
    chain_for,
)
from repro.nic import ConventionalInterface, FCFSInterface, FPFSInterface
from repro.sessions import sessions_point
from repro.sessions.contention import SessionArbiter
from repro.sim.engine import Environment
from repro.sim.process import Process

#: Work counter -> (class, method) whose calls it counts.
COUNTED = {
    "events": (Environment, "schedule"),
    "resumes": (Process, "_resume"),
    "admissions": (SessionArbiter, "_admit"),
    "listener_calls": (SessionArbiter, "_on_delivery"),
}


@pytest.fixture(scope="module")
def testbed():
    topology = build_irregular_network(seed=0)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    chain = chain_for(ordering[0], list(ordering[1:]), ordering)
    return topology, router, build_kbinomial_tree(chain, 2)


@pytest.fixture
def work(monkeypatch):
    """Calls of each ``COUNTED`` method, counted by class-level wrappers."""
    counts = dict.fromkeys(COUNTED, 0)

    def counted(key, method):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return wrapper

    for key, (owner, name) in COUNTED.items():
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return counts


@pytest.mark.parametrize(
    "ni_class, packets, events, resumes, latency",
    [
        (FPFSInterface, 32, 20_579, 20_578, 338.19999999999845),
        (FPFSInterface, 8, 5_243, 5_242, 132.40000000000023),
        (FCFSInterface, 8, 5_243, 5_242, 182.40000000000015),
        (ConventionalInterface, 8, 7_435, 6_892, 484.2999999999978),
    ],
    ids=["fpfs-32", "fpfs-8", "fcfs-8", "conventional-8"],
)
def test_broadcast_event_budget(testbed, work, ni_class, packets, events, resumes, latency):
    topology, router, tree = testbed
    simulator = MulticastSimulator(topology, router, ni_class=ni_class)
    result = simulator.run(tree, packets)
    assert result.latency == latency
    assert work == {"events": events, "resumes": resumes, "admissions": 0, "listener_calls": 0}


@pytest.mark.parametrize(
    "scheduler, makespan",
    [
        ("fifo", 802.7000000000077),
        ("rr", 789.6000000000023),
        ("sjf", 802.7000000000077),
        ("cda", 802.7000000000077),
    ],
    ids=["fifo", "rr", "sjf", "cda"],
)
def test_sessions_point_work_budget(work, scheduler, makespan):
    record = sessions_point(
        scheduler, 2.0, 0,
        arrival="batch", count=10, dests=15, m=8, max_active=2, measure_isolated=True,
    )
    assert record["makespan"] == makespan
    assert work == {"events": 29_113, "resumes": 29_083, "admissions": 10, "listener_calls": 1_200}
