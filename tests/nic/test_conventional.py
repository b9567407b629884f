"""Conventional NI: host-level store-and-forward baseline."""

from __future__ import annotations

import pytest

from repro.core import MulticastTree, build_binomial_tree, build_linear_tree
from repro.mcast import MulticastSimulator
from repro.network import host
from repro.nic import ConventionalInterface, FPFSInterface
from repro.obs import Tracer

from .helpers import FAST, ni_events, star


def run(tree, m, n_hosts=8, ni=ConventionalInterface, tracer=None):
    topo, router = star(n_hosts)
    sim = MulticastSimulator(topo, router, params=FAST, ni_class=ni, tracer=tracer)
    return sim.run(tree, m), sim


def test_all_destinations_receive():
    tree = build_binomial_tree([host(i) for i in range(6)])
    result, _ = run(tree, 2)
    assert len(result.destination_completion) == 5


def test_direct_send_has_no_forwarding_penalty():
    # Single hop: conventional == smart except DMA accounting.
    tree = build_linear_tree([host(0), host(1)])
    r_conv, _ = run(tree, 1, ni=ConventionalInterface)
    r_smart, _ = run(tree, 1, ni=FPFSInterface)
    assert r_conv.completion_time == pytest.approx(
        r_smart.completion_time + FAST.t_dma
    )


def test_intermediate_hop_pays_host_overheads():
    # 0 -> 1 -> 2: the forwarding hop costs t_dma (up) + t_r + t_s +
    # t_dma (down) more than the smart NI's pure-coprocessor path.
    tree = build_linear_tree([host(0), host(1), host(2)])
    r_conv, _ = run(tree, 1, ni=ConventionalInterface)
    r_smart, _ = run(tree, 1, ni=FPFSInterface)
    extra = r_conv.completion_time - r_smart.completion_time
    # Source-side DMA down, host-1 DMA up, host software t_r + t_s,
    # host-1 DMA back down.  Host 2's own DMA/t_r is outside the
    # completion metric (which stops at NI arrival).
    expected = 3 * FAST.t_dma + FAST.t_r + FAST.t_s
    assert extra == pytest.approx(expected)


def test_store_and_forward_blocks_on_whole_message():
    # With m packets, the intermediate host forwards nothing until all
    # m arrived: completion grows ~linearly with m on a 2-hop chain
    # (no cut-through pipelining of the second hop).
    tree = build_linear_tree([host(0), host(1), host(2)])
    r2, _ = run(tree, 2, ni=ConventionalInterface)
    r8, _ = run(tree, 8, ni=ConventionalInterface)
    smart2, _ = run(tree, 2, ni=FPFSInterface)
    smart8, _ = run(tree, 8, ni=FPFSInterface)
    conv_growth = r8.completion_time - r2.completion_time
    smart_growth = smart8.completion_time - smart2.completion_time
    # Conventional pays twice per packet (both hops serialize); smart
    # pipelines and pays once.
    assert conv_growth >= 1.8 * smart_growth


def test_host_recv_trace_present():
    tree = build_linear_tree([host(0), host(1)])
    tracer = Tracer()
    run(tree, 2, tracer=tracer)
    received = [(h, e.args["pkt"]) for h, e in ni_events(tracer, "host recv")]
    assert received == [(str(host(1)), 0), (str(host(1)), 1)]


def test_smart_ni_beats_conventional_on_binomial_multicast():
    # §2.5's claim, measured end to end.
    tree = build_binomial_tree([host(i) for i in range(8)])
    r_conv, _ = run(tree, 1, ni=ConventionalInterface)
    r_smart, _ = run(tree, 1, ni=FPFSInterface)
    assert r_smart.completion_time < r_conv.completion_time


def test_gap_widens_with_tree_depth():
    flat = MulticastTree(host(0))
    flat.add_child(host(0), host(1))
    deep = build_linear_tree([host(0), host(1), host(2), host(3)])
    gap_flat = (
        run(flat, 1, ni=ConventionalInterface)[0].completion_time
        - run(flat, 1, ni=FPFSInterface)[0].completion_time
    )
    gap_deep = (
        run(deep, 1, ni=ConventionalInterface)[0].completion_time
        - run(deep, 1, ni=FPFSInterface)[0].completion_time
    )
    assert gap_deep > gap_flat
