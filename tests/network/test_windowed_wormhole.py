"""Finite-worm (windowed) wormhole transmission."""

from __future__ import annotations

import pytest

from repro.network import ChannelPool
from repro.network.wormhole import transmit, transmit_windowed
from repro.params import SystemParams
from repro.sim import Environment

#: worm_flits = 64/8 = 8; flit_cycle = 8/64 = 0.125; t_switch = 1.
PARAMS = SystemParams(t_switch=1.0, link_bandwidth=64.0, packet_bytes=64, flit_bytes=8)


def run_windowed(routes, starts=None, params=PARAMS):
    env = Environment()
    pool = ChannelPool(env)
    spans = []

    def sender(env, route, delay):
        yield env.timeout(delay)
        begin = env.now
        yield from transmit_windowed(env, pool.resolve(route), params)
        spans.append((begin, env.now))

    starts = starts or [0.0] * len(routes)
    for route, delay in zip(routes, starts):
        env.process(sender(env, route, delay))
    env.run()
    return spans, pool


def test_empty_route_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        list(transmit_windowed(env, ChannelPool(env).resolve([]), PARAMS))


def test_uncontended_latency_formula():
    # L hops: L * (t_switch + flit_cycle) header + worm_flits * flit_cycle drain.
    route = [("a", "b"), ("b", "c"), ("c", "d")]
    spans, _ = run_windowed([route])
    expected = 3 * (1.0 + 0.125) + 8 * 0.125
    assert spans[0] == (0.0, pytest.approx(expected))


def test_all_channels_released():
    route = [(chr(97 + i), chr(98 + i)) for i in range(5)]
    _, pool = run_windowed([route])
    for key in route:
        assert pool.channel(key).count == 0


def test_early_channels_release_before_completion():
    # A long route (12 hops) with an 8-flit worm: by the time the header
    # is at hop 12, hops 1..3 are free.  A second packet wanting hop 1
    # can start before the first finishes.
    long_route = [(i, i + 1) for i in range(12)]
    short_route = [(0, 1)]
    env = Environment()
    pool = ChannelPool(env)
    times = {}

    def sender(env, name, route, delay):
        yield env.timeout(delay)
        yield from transmit_windowed(env, pool.resolve(route), PARAMS)
        times[name] = env.now

    env.process(sender(env, "long", long_route, 0.0))
    env.process(sender(env, "short", short_route, 0.5))
    env.run()
    assert times["short"] < times["long"]


def test_path_model_is_more_conservative():
    # Same scenario under the hold-all model: the short packet waits
    # for the long one's full drain.
    long_route = [(i, i + 1) for i in range(12)]
    short_route = [(0, 1)]

    def run(tx):
        env = Environment()
        pool = ChannelPool(env)
        times = {}

        def sender(env, name, route, delay):
            yield env.timeout(delay)
            yield from tx(env, pool.resolve(route), PARAMS)
            times[name] = env.now

        env.process(sender(env, "long", long_route, 0.0))
        env.process(sender(env, "short", short_route, 0.5))
        env.run()
        return times

    windowed = run(transmit_windowed)
    held = run(transmit)
    assert windowed["short"] < held["short"]


def test_short_route_holds_everything_until_drain():
    # Route shorter than the worm: behaves like the path model plus
    # header flit pacing.
    route = [("a", "b"), ("b", "c")]
    spans, _ = run_windowed([route, route])
    spans.sort()
    # Second packet cannot start hop 1 before the first fully drains.
    first_end = spans[0][1]
    assert spans[1][1] > first_end


def test_simulator_channel_model_validation():
    from repro.mcast import MulticastSimulator
    from repro.network import build_irregular_network, UpDownRouter

    topo = build_irregular_network(n_switches=4, switch_ports=6, hosts_per_switch=2, seed=0)
    with pytest.raises(ValueError, match="channel_model"):
        MulticastSimulator(topo, UpDownRouter(topo), channel_model="bogus")
