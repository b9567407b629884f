"""FPFS smart NI behaviour."""

from __future__ import annotations

import pytest

from repro.core import MulticastTree, build_linear_tree
from repro.mcast import MulticastSimulator
from repro.network import host
from repro.nic import FPFSInterface
from repro.obs import Tracer

from .helpers import FAST, ni_events, star


def run(tree, m, n_hosts=8, tracer=None):
    topo, router = star(n_hosts)
    sim = MulticastSimulator(topo, router, params=FAST, ni_class=FPFSInterface, tracer=tracer)
    return sim.run(tree, m), sim


def test_all_destinations_receive_all_packets():
    tree = build_linear_tree([host(i) for i in range(5)])
    result, _ = run(tree, 3)
    for dest in tree.destinations():
        assert result.destination_completion[dest] > 0


def test_exact_latency_linear_tree_single_packet():
    # t_s(10) + per hop [t_ns(1) + wire(1) + t_nr(1)] = 10 + 3h; + t_r.
    tree = build_linear_tree([host(0), host(1), host(2)])
    result, _ = run(tree, 1)
    assert result.completion_time == pytest.approx(10 + 3 + 3)
    assert result.latency == pytest.approx(10 + 6 + 10)


def test_source_sends_packet_major_order():
    tree = MulticastTree(host(0))
    tree.add_child(host(0), host(1))
    tree.add_child(host(0), host(2))
    tracer = Tracer()
    run(tree, 2, tracer=tracer)
    sends = [
        (e.args["pkt"], e.args["dst"])
        for e in tracer.events
        if e.name == "send" and e.args["src"] == str(host(0))
    ]
    h1, h2 = str(host(1)), str(host(2))
    assert sends == [(0, h1), (0, h2), (1, h1), (1, h2)]


def test_intermediate_forwards_on_arrival_not_after_message():
    # Chain 0 -> 1 -> 2 with m=2: host 2 must get packet 0 *before*
    # host 1 has received packet 1 + forwarding slack (cut-through).
    tree = build_linear_tree([host(0), host(1), host(2)])
    tracer = Tracer()
    run(tree, 2, tracer=tracer)
    delivered = {(h, e.args["pkt"]): e.ts for h, e in ni_events(tracer, "deliver")}
    p0_at_2 = delivered[str(host(2)), 0]
    p1_at_1 = delivered[str(host(1)), 1]
    assert p0_at_2 <= p1_at_1 + FAST.t_ns + 2  # forwarded concurrently


def test_packet_completions_monotone():
    tree = build_linear_tree([host(i) for i in range(6)])
    result, _ = run(tree, 4)
    assert list(result.packet_completion) == sorted(result.packet_completion)


def test_pipeline_interval_tracks_root_fanout():
    # Fan-out 1 vs fan-out 2 root: completion gaps scale accordingly.
    linear = build_linear_tree([host(0), host(1), host(2)])
    wide = MulticastTree(host(0))
    wide.add_child(host(0), host(1))
    wide.add_child(host(0), host(2))
    r_lin, _ = run(linear, 4)
    r_wide, _ = run(wide, 4)
    gap_lin = r_lin.packet_intervals[-1]
    gap_wide = r_wide.packet_intervals[-1]
    assert gap_wide == pytest.approx(2 * gap_lin)


def test_forward_buffer_bounded_by_children_plus_queue():
    # FPFS holds a packet only until its copies leave: with fan-out 1
    # at intermediates, the buffer never exceeds the in-flight window.
    tree = build_linear_tree([host(i) for i in range(4)])
    result, _ = run(tree, 16)
    assert result.max_intermediate_buffer <= 3


def test_injection_charges_t_s_once():
    tree = build_linear_tree([host(0), host(1)])
    r1, _ = run(tree, 1)
    r4, _ = run(tree, 4)
    # 3 extra packets cost 3 * (t_ns + wire) at the single bottleneck
    # hop, not 3 * t_s.
    assert r4.completion_time - r1.completion_time == pytest.approx(3 * 2)


def test_wrong_root_rejected():
    topo, router = star(4)
    sim = MulticastSimulator(topo, router, params=FAST, ni_class=FPFSInterface)
    tree = build_linear_tree([host(1), host(0)])
    bad = build_linear_tree([host(0), host(1)])
    # Build a tree rooted at a host, then hand the NI a tree whose root
    # differs from the injecting NI's host: simulator wires by tree.root,
    # so corrupt the scenario by calling inject directly.
    from repro.nic.packets import Message
    from repro.sim import Environment
    from repro.network import ChannelPool
    from repro.nic import NICRegistry

    env = Environment()
    registry = NICRegistry()
    pool = ChannelPool(env)
    ni = FPFSInterface(env, host(2), router, registry, pool, FAST)
    msg = Message(source=host(0), destinations=(host(1),), num_packets=1)
    with pytest.raises(ValueError, match="root"):
        env.process(ni.inject_multicast(bad, msg))
        env.run()


def test_duplicate_delivery_detection():
    # The NI raises if the same (msg, pkt) arrives twice — a forwarding
    # bug guard.
    from repro.nic.packets import Message, Packet
    from repro.sim import Environment
    from repro.network import ChannelPool
    from repro.nic import NICRegistry

    topo, router = star(3)
    env = Environment()
    registry = NICRegistry()
    pool = ChannelPool(env)
    ni = FPFSInterface(env, host(0), router, registry, pool, FAST)
    msg = Message(source=host(1), destinations=(host(0),), num_packets=1)
    pkt = Packet(msg, 0)
    ni.recv_queue.put(pkt)
    ni.recv_queue.put(pkt)
    with pytest.raises(RuntimeError, match="duplicate"):
        env.run()
