"""Exact kernel work of one simulated broadcast.

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
from repro.sim.engine import Environment
from repro.sim.process import Process


@pytest.fixture(scope="module")
def testbed():
    topology = build_irregular_network(seed=0)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    chain = chain_for(ordering[0], list(ordering[1:]), ordering)
    return topology, router, build_kbinomial_tree(chain, 2)


@pytest.fixture
def work(monkeypatch):
    """Calls of ``schedule`` and ``_resume``, counted by class-level wrappers."""
    counts = {"events": 0, "resumes": 0}
    schedule, resume = Environment.schedule, Process._resume

    def counted_schedule(env, *args, **kwargs):
        counts["events"] += 1
        return schedule(env, *args, **kwargs)

    def counted_resume(process, event):
        counts["resumes"] += 1
        return resume(process, event)

    monkeypatch.setattr(Environment, "schedule", counted_schedule)
    monkeypatch.setattr(Process, "_resume", counted_resume)
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
    assert work == {"events": events, "resumes": resumes}
