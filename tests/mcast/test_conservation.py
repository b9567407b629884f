"""Span-based conservation invariants of full simulation runs.

These tests reconstruct the packet flow from the NI spans a
:class:`repro.obs.Tracer` records and check global properties no
single module can see: every send pairs with a receive, forwarding
respects tree edges, and nothing is duplicated or invented.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import build_kbinomial_tree
from repro.mcast import MulticastSimulator, chain_for
from repro.nic import FCFSInterface, FPFSInterface
from repro.obs import Tracer

from ..nic.helpers import ni_events


@pytest.fixture(scope="module", params=[FPFSInterface, FCFSInterface], ids=["fpfs", "fcfs"])
def traced_run(request, paper_topology, paper_router, paper_ordering):
    chain = chain_for(paper_ordering[0], list(paper_ordering[1:25]), paper_ordering)
    tree = build_kbinomial_tree(chain, 3)
    tracer = Tracer()
    sim = MulticastSimulator(paper_topology, paper_router, ni_class=request.param, tracer=tracer)
    m = 5
    result = sim.run(tree, m)
    sends = [e for e in tracer.events if e.name == "send"]
    return tree, m, result, sends, ni_events(tracer, "deliver")


def test_sends_equal_receives(traced_run):
    tree, m, result, sends, deliveries = traced_run
    assert len(sends) == len(deliveries)


def test_total_volume_is_edges_times_packets(traced_run):
    tree, m, result, sends, deliveries = traced_run
    n_edges = sum(1 for _ in tree.edges())
    assert len(sends) == n_edges * m


def test_each_edge_carries_each_packet_exactly_once(traced_run):
    tree, m, result, sends, deliveries = traced_run
    counter = Counter((e.args["src"], e.args["dst"], e.args["pkt"]) for e in sends)
    expected = {(str(u), str(v), p) for u, v in tree.edges() for p in range(m)}
    assert set(counter) == expected
    assert all(count == 1 for count in counter.values())


def test_sends_follow_tree_edges_only(traced_run):
    tree, m, result, sends, deliveries = traced_run
    edges = {(str(u), str(v)) for u, v in tree.edges()}
    for event in sends:
        assert (event.args["src"], event.args["dst"]) in edges


def test_forward_happens_after_receive(traced_run):
    tree, m, result, sends, deliveries = traced_run
    recv_time = {(host, e.args["pkt"]): e.ts for host, e in deliveries}
    for event in sends:
        src = event.args["src"]
        if src == str(tree.root):
            continue
        assert event.ts >= recv_time[(src, event.args["pkt"])]


def test_receive_times_match_result(traced_run):
    tree, m, result, sends, deliveries = traced_run
    for dest, completion in result.destination_completion.items():
        last = max(e.ts for host, e in deliveries if host == str(dest))
        assert completion == pytest.approx(last)
