"""Latency breakdown decomposition."""

from __future__ import annotations

import pytest

from repro.analysis import run_breakdown
from repro.core import build_binomial_tree, build_kbinomial_tree
from repro.mcast import MulticastSimulator, cco_ordering, chain_for
from repro.network import UpDownRouter, build_irregular_network


@pytest.fixture(scope="module")
def setup(paper_topology, paper_router, paper_ordering):
    sim = MulticastSimulator(paper_topology, paper_router)
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:17]), paper_ordering)
    return sim, chain


def test_components_nonnegative_and_consistent(setup):
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    b = run_breakdown(sim, tree, 4)
    assert b.sends == sum(1 for _ in tree.edges()) * 4
    assert b.host_startup == sim.params.t_s
    assert b.host_receive == sim.params.t_r
    assert b.injection == pytest.approx(b.sends * sim.params.t_ns)
    assert b.receive == pytest.approx(b.sends * sim.params.t_nr)
    assert b.network > 0 and b.blocking >= 0
    assert b.total_work > 0


def test_shares_sum_to_one(setup):
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    shares = run_breakdown(sim, tree, 8).shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert all(0 <= v <= 1 for v in shares.values())


def test_injection_dominates_network_under_paper_params(setup):
    # t_ns = 3.0 µs vs per-hop 0.2 + wire 0.4: NI overhead is the
    # dominant per-send cost — the premise of the step model.
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    b = run_breakdown(sim, tree, 8)
    assert b.injection > b.network


def test_blocking_stays_marginal_on_cco_chains(setup):
    # The CCO ordering keeps both trees' channel blocking a small
    # fraction of their total network occupancy.  (The k-binomial's
    # deeper pipeline keeps more packets in flight, so it blocks
    # slightly *more* in aggregate than the source-serialized binomial
    # — while still finishing far sooner.)
    sim, chain = setup
    m = 16
    kb = run_breakdown(sim, build_kbinomial_tree(chain, 2), m)
    bb = run_breakdown(sim, build_binomial_tree(chain), m)
    # Same number of sends (same edges x packets).
    assert kb.sends == bb.sends
    assert kb.blocking < 0.2 * kb.network
    assert bb.blocking < 0.2 * bb.network
    # The latency ordering is unaffected by the blocking difference.
    assert kb.result.latency < bb.result.latency


def test_caller_simulator_unchanged(setup):
    sim, chain = setup
    tree = build_kbinomial_tree(chain, 2)
    run_breakdown(sim, tree, 2)
    assert sim.tracer is None
    assert sim.last_registry is None


@pytest.fixture(scope="module")
def seed0():
    topology = build_irregular_network(seed=0)
    router = UpDownRouter(topology)
    return topology, router, cco_ordering(topology, router)


def test_worm_model_breakdown_reports_the_worm_latency(seed0):
    # The traced re-run keeps the caller's channel model: the path
    # model would read 240.99 µs here.
    topology, router, ordering = seed0
    sim = MulticastSimulator(topology, router, channel_model="worm")
    tree = build_kbinomial_tree(chain_for(ordering[0], list(ordering[1:32]), ordering), 3)
    own = sim.run(tree, 16).latency
    assert run_breakdown(sim, tree, 16).result.latency == own == pytest.approx(248.65)


def test_slow_hosts_charge_their_own_ni_overheads(seed0):
    # Half the chain (the source included) runs its NI at 3x: each
    # send costs its sender's t_ns and each receive its receiver's t_nr.
    topology, router, ordering = seed0
    chain = chain_for(ordering[0], list(ordering[1:16]), ordering)
    tree = build_kbinomial_tree(chain, 2)
    speed = {h: 3.0 for h in chain[::2]}
    sim = MulticastSimulator(topology, router, host_speed=speed)
    b = run_breakdown(sim, tree, 8)
    t_ns, t_nr = sim.params.t_ns, sim.params.t_nr
    assert b.injection == pytest.approx(8 * sum(t_ns * speed.get(u, 1.0) for u, _ in tree.edges()))
    assert b.receive == pytest.approx(8 * sum(t_nr * speed.get(v, 1.0) for _, v in tree.edges()))
    assert (b.injection, b.receive) == pytest.approx((792.0, 464.0))
