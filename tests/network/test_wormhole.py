"""Wormhole transmission: timing, blocking, back-pressure, accounting."""

from __future__ import annotations

import pytest

from repro.network import ChannelPool, path_latency, transmit
from repro.params import SystemParams
from repro.sim import Environment

PARAMS = SystemParams(t_switch=1.0, link_bandwidth=64.0, packet_bytes=64)  # wire_time = 1


def run_transfers(routes, starts=None, params=PARAMS):
    """Run one transmit per route; return list of (start, end) times."""
    env = Environment()
    pool = ChannelPool(env)
    spans = []

    def sender(env, route, delay):
        yield env.timeout(delay)
        begin = env.now
        yield from transmit(env, pool.resolve(route), params)
        spans.append((begin, env.now))

    starts = starts or [0.0] * len(routes)
    for route, delay in zip(routes, starts):
        env.process(sender(env, route, delay))
    env.run()
    return spans, pool


def test_uncontended_latency():
    spans, _ = run_transfers([[("a", "b"), ("b", "c")]])
    # 2 hops * t_switch + wire_time = 3.
    assert spans == [(0.0, 3.0)]


def test_path_latency_helper_matches_simulation():
    route = [("a", "b"), ("b", "c"), ("c", "d")]
    spans, _ = run_transfers([route])
    assert spans[0][1] == path_latency(len(route), PARAMS)


def test_path_latency_validation():
    with pytest.raises(ValueError):
        path_latency(0, PARAMS)


def test_empty_route_rejected():
    env = Environment()
    pool = ChannelPool(env)
    with pytest.raises(ValueError):
        list(transmit(env, pool.resolve([]), PARAMS))


def test_shared_channel_serializes():
    route = [("a", "b")]
    spans, _ = run_transfers([route, route])
    spans.sort()
    # Each needs t_switch + wire = 2; second waits for first's release.
    assert spans == [(0.0, 2.0), (0.0, 4.0)]


def test_disjoint_channels_run_in_parallel():
    spans, _ = run_transfers([[("a", "b")], [("c", "d")]])
    assert spans == [(0.0, 2.0), (0.0, 2.0)]


def test_backpressure_holds_earlier_links():
    # P1 holds (b,c) for a long transfer; P2's route is (a,b),(b,c):
    # P2 acquires (a,b), blocks on (b,c), and a third packet wanting
    # (a,b) must wait for P2's entire transfer (wormhole back-pressure).
    env = Environment()
    pool = ChannelPool(env)
    log = {}

    def sender(env, name, route, delay):
        yield env.timeout(delay)
        yield from transmit(env, pool.resolve(route), PARAMS)
        log[name] = env.now

    env.process(sender(env, "blocker", [("b", "c")], 0.0))
    env.process(sender(env, "middle", [("a", "b"), ("b", "c")], 0.5))
    env.process(sender(env, "tail", [("a", "b")], 0.6))
    env.run()
    # blocker: 0 -> 2.  middle: acquires (a,b) at 0.5 (+1 switch), waits
    # for (b,c) until 2, +1 switch +1 wire -> 4.  tail: (a,b) frees at 4,
    # then +1 +1 -> 6.
    assert log["blocker"] == 2.0
    assert log["middle"] == 4.0
    assert log["tail"] == 6.0


def test_channels_released_after_tail():
    spans, pool = run_transfers([[("a", "b"), ("b", "c")]])
    for res in (pool.channel(("a", "b")), pool.channel(("b", "c"))):
        assert res.count == 0


def test_acquisition_accounting():
    route = [("a", "b")]
    _, pool = run_transfers([route, route])
    assert pool.acquisitions[("a", "b")] == 2
    assert pool.blocked_time[("a", "b")] == pytest.approx(2.0)
    assert pool.total_blocked_time == pytest.approx(2.0)


def test_busiest_channel():
    _, pool = run_transfers([[("a", "b")], [("a", "b")], [("c", "d")]])
    key, count = pool.busiest_channel
    assert key == ("a", "b") and count == 2


def test_empty_pool_busiest_is_none():
    env = Environment()
    assert ChannelPool(env).busiest_channel is None


def test_channel_lazily_created_once():
    env = Environment()
    pool = ChannelPool(env)
    assert pool.channel("x") is pool.channel("x")


def test_vc_keys_are_distinct_channels():
    # (u, v, 0) and (u, v, 1) do not contend.
    spans, _ = run_transfers([[("a", "b", 0)], [("a", "b", 1)]])
    assert spans == [(0.0, 2.0), (0.0, 2.0)]
