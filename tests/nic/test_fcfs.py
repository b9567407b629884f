"""FCFS smart NI behaviour."""

from __future__ import annotations

import pytest

from repro.core import MulticastTree, build_linear_tree
from repro.mcast import MulticastSimulator
from repro.network import host
from repro.nic import FCFSInterface, FPFSInterface
from repro.obs import Tracer

from .helpers import FAST, ni_events, star


def run(tree, m, n_hosts=8, ni=FCFSInterface, tracer=None):
    topo, router = star(n_hosts)
    sim = MulticastSimulator(topo, router, params=FAST, ni_class=ni, tracer=tracer)
    return sim.run(tree, m), sim


def two_children_tree():
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(0), host(2))
    return tree


def test_all_destinations_receive_all_packets():
    tree = two_children_tree()
    result, _ = run(tree, 3)
    assert set(result.destination_completion) == {host(1), host(2)}


def test_source_sends_child_major_order():
    tracer = Tracer()
    run(two_children_tree(), 2, tracer=tracer)
    sends = [
        (e.args["pkt"], e.args["dst"])
        for e in tracer.events
        if e.name == "send" and e.args["src"] == str(host(0))
    ]
    h1, h2 = str(host(1)), str(host(2))
    assert sends == [(0, h1), (1, h1), (0, h2), (1, h2)]


def test_intermediate_cut_through_to_first_child_only():
    # 0 -> 1 -> {2, 3}: packet 0 reaches host 2 (first child) before
    # host 1 has even received the last packet; host 3 gets nothing
    # until the full message has arrived at host 1.
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(1), host(2))
    tree.add_child(host(1), host(3))
    tracer = Tracer()
    run(tree, 3, tracer=tracer)
    delivered = ni_events(tracer, "deliver")
    first_to_c2 = min(e.ts for h, e in delivered if h == str(host(2)))
    last_into_1 = max(e.ts for h, e in delivered if h == str(host(1)))
    first_to_c3 = min(e.ts for h, e in delivered if h == str(host(3)))
    assert first_to_c2 < last_into_1
    assert first_to_c3 > last_into_1


def test_matches_fpfs_for_single_packet():
    # m = 1: per-packet and per-child orders coincide.
    tree = two_children_tree()
    r_fcfs, _ = run(tree, 1, ni=FCFSInterface)
    r_fpfs, _ = run(tree, 1, ni=FPFSInterface)
    assert r_fcfs.completion_time == pytest.approx(r_fpfs.completion_time)


def test_matches_fpfs_on_linear_tree():
    # Fan-out 1 everywhere: both disciplines degenerate to the same flow.
    tree = build_linear_tree([host(i) for i in range(5)])
    r_fcfs, _ = run(tree, 4, ni=FCFSInterface)
    r_fpfs, _ = run(tree, 4, ni=FPFSInterface)
    assert r_fcfs.completion_time == pytest.approx(r_fpfs.completion_time)


def test_slower_than_fpfs_with_branching_intermediate():
    # FCFS floods late children with back-to-back packets; a child that
    # must itself replicate (fan-out 2 below) cannot keep up and builds
    # a backlog FPFS never creates (FPFS delivers one packet per c
    # sends — exactly the child's replication service rate).
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(1), host(2))
    tree.add_child(host(1), host(3))
    tree.add_child(host(3), host(4))
    tree.add_child(host(3), host(5))
    r_fcfs, _ = run(tree, 8, ni=FCFSInterface)
    r_fpfs, _ = run(tree, 8, ni=FPFSInterface)
    assert r_fcfs.completion_time > r_fpfs.completion_time


def test_intermediate_buffer_scales_with_message_length():
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(1), host(2))
    tree.add_child(host(1), host(3))
    peaks = []
    for m in (2, 4, 8):
        result, _ = run(tree, m, ni=FCFSInterface)
        peaks.append(result.max_intermediate_buffer)
    assert peaks == [2, 4, 8]  # buffers the whole message


def test_fpfs_buffer_stays_small_same_scenario():
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(1), host(2))
    tree.add_child(host(1), host(3))
    for m in (4, 8):
        result, _ = run(tree, m, ni=FPFSInterface)
        assert result.max_intermediate_buffer < m


def test_leaf_buffers_nothing():
    tree = two_children_tree()
    result, _ = run(tree, 5, ni=FCFSInterface)
    assert result.peak_buffers[host(1)] == 0
    assert result.peak_buffers[host(2)] == 0
