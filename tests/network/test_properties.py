"""Property-based tests on the network substrate: routing invariants and
deadlock-freedom under random traffic."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    ChannelPool,
    EcubeRouter,
    KAryNCube,
    UpDownRouter,
    build_irregular_network,
    transmit,
)
from repro.params import SystemParams
from repro.sim import Environment

PARAMS = SystemParams()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_irregular_generator_invariants(seed):
    topo = build_irregular_network(seed=seed)
    assert topo.is_connected()
    assert len(topo.hosts) == 64 and len(topo.switches) == 16
    for sw in topo.switches:
        assert topo.degree(sw) <= 8
        assert len(topo.attached_hosts(sw)) == 4


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), pair_seed=st.integers(0, 1000))
def test_updown_routes_legal_and_connected(seed, pair_seed):
    topo = build_irregular_network(seed=seed)
    router = UpDownRouter(topo)
    rng = random.Random(pair_seed)
    hosts = list(topo.hosts)
    for _ in range(20):
        a, b = rng.sample(hosts, 2)
        route = router.route(a, b)
        # Connected chain from a to b.
        assert route[0][0] == a and route[-1][1] == b
        for (u1, v1), (u2, v2) in zip(route, route[1:]):
            assert v1 == u2
        # Legality: up* then down*.
        descending = False
        for (u, v) in route[1:-1]:
            up = router.is_up(u, v)
            assert not (descending and up)
            descending = descending or not up


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=1, max_value=3),
    pair_seed=st.integers(0, 1000),
)
def test_ecube_routes_minimal(k, n, pair_seed):
    cube = KAryNCube(k, n)
    router = EcubeRouter(cube)
    rng = random.Random(pair_seed)
    hosts = list(cube.hosts)
    for _ in range(15):
        a, b = rng.sample(hosts, 2)
        route = router.route(a, b)
        dist = sum(
            min((cb - ca) % k, (ca - cb) % k)
            for ca, cb in zip(cube.coords(a[1]), cube.coords(b[1]))
        )
        assert len(route) == dist + 2


@pytest.mark.parametrize("seed", range(3))
def test_random_traffic_quiesces_on_irregular_network(seed):
    """Deadlock-freedom stress: 200 random transfers all complete."""
    topo = build_irregular_network(seed=seed)
    router = UpDownRouter(topo)
    env = Environment()
    pool = ChannelPool(env)
    done = []
    rng = random.Random(seed)
    hosts = list(topo.hosts)

    def sender(env, a, b, delay):
        yield env.timeout(delay)
        yield from transmit(env, pool.resolve(router.route(a, b)), PARAMS)
        done.append((a, b))

    for _ in range(200):
        a, b = rng.sample(hosts, 2)
        env.process(sender(env, a, b, rng.uniform(0, 5)))
    env.run()
    assert len(done) == 200  # quiesced with every transfer delivered


@pytest.mark.parametrize("k,n", [(4, 2), (3, 3)])
def test_random_traffic_quiesces_on_torus(k, n):
    """Dateline VCs keep dimension-ordered wormhole traffic deadlock-free."""
    cube = KAryNCube(k, n)
    router = EcubeRouter(cube)
    env = Environment()
    pool = ChannelPool(env)
    done = []
    rng = random.Random(9)
    hosts = list(cube.hosts)

    def sender(env, a, b, delay):
        yield env.timeout(delay)
        yield from transmit(env, pool.resolve(router.route(a, b)), PARAMS)
        done.append((a, b))

    for _ in range(200):
        a, b = rng.sample(hosts, 2)
        env.process(sender(env, a, b, rng.uniform(0, 5)))
    env.run()
    assert len(done) == 200
