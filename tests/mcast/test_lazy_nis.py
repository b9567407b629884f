"""A fabric builds only the NIs a run looks up, and nothing else moves.

The registry builds a host's NI on its first lookup, so a multicast
over a 16-host tree on the 64-host testbed builds 16 NIs.  An idle NI's
engines only park on an empty queue, so leaving it out must change no
simulated number: every lazily built run here equals the same run with
every NI built before the first message, in every
:class:`~repro.mcast.simulator.MulticastResult` field and in the buffer
gauges, which still cover every host.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import MulticastTree
from repro.mcast import MulticastSimulator
from repro.network import EcubeRouter, KAryNCube, UpDownRouter, build_irregular_network
from repro.nic import ConventionalInterface, FCFSInterface, FPFSInterface
from repro.sim import Environment


class EagerSimulator(MulticastSimulator):
    """Builds every NI before any message is installed."""

    def _post_build(self, env, registry, pool) -> None:
        registry.build_all()


@lru_cache(maxsize=None)
def _fabric(kind: str, seed: int):
    if kind == "irregular":
        topology = build_irregular_network(seed=seed)
        return topology, UpDownRouter(topology)
    cube = KAryNCube(8, 2) if kind == "torus-8x8" else KAryNCube(4, 3)
    return cube, EcubeRouter(cube)


def _random_tree(hosts, size: int, rng: random.Random) -> MulticastTree:
    """A random rooted tree over ``size`` random hosts (any shape)."""
    nodes = rng.sample(list(hosts), size)
    tree = MulticastTree(nodes[0])
    for i, node in enumerate(nodes[1:], start=1):
        tree.add_child(nodes[rng.randrange(i)], node)
    return tree


def _fingerprint(simulator, result):
    message = result.message
    return (
        result.latency,
        result.completion_time,
        result.packet_completion,
        list(result.destination_completion.items()),
        list(result.peak_buffers.items()),
        result.blocked_time,
        (message.source, message.destinations, message.num_packets),
        list(simulator.last_gauges.items()),
    )


@settings(max_examples=40, deadline=None)
@given(
    fabric=st.sampled_from(
        [("irregular", s) for s in range(6)] + [("torus-8x8", 0), ("torus-4x4x4", 0)]
    ),
    ni_class=st.sampled_from([FPFSInterface, FCFSInterface, ConventionalInterface]),
    ports=st.integers(1, 2),
    channel_model=st.sampled_from(["path", "worm"]),
    size=st.integers(2, 40),
    m=st.integers(1, 6),
    stragglers=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_lazy_run_equals_all_nis_run(
    fabric, ni_class, ports, channel_model, size, m, stragglers, seed
):
    topology, router = _fabric(*fabric)
    rng = random.Random(seed)
    tree = _random_tree(topology.hosts, size, rng)
    slow = rng.sample(sorted(tree.nodes()), min(stragglers, size))
    host_speed = {h: rng.choice([0.5, 2.0, 3.0]) for h in slow}
    config = dict(
        ni_class=ni_class, ni_ports=ports, channel_model=channel_model, host_speed=host_speed
    )
    lazy = MulticastSimulator(topology, router, **config)
    eager = EagerSimulator(topology, router, **config)
    lazy_result = lazy.run(tree, m)
    eager_result = eager.run(tree, m)
    assert _fingerprint(lazy, lazy_result) == _fingerprint(eager, eager_result)
    assert len(list(lazy.last_registry)) == size
    assert len(list(eager.last_registry)) == len(topology.hosts)
    assert lazy.last_gauges["hosts"] == len(topology.hosts)


def test_concurrent_multicasts_build_the_union_of_their_trees():
    topology, router = _fabric("irregular", 0)
    rng = random.Random(7)
    trees = [_random_tree(topology.hosts, 9, rng) for _ in range(3)]
    lazy = MulticastSimulator(topology, router).run_many([(t, 4) for t in trees])
    eager = EagerSimulator(topology, router).run_many([(t, 4) for t in trees])
    for a, b in zip(lazy, eager):
        assert (a.latency, a.packet_completion, a.peak_buffers, a.blocked_time) == (
            b.latency, b.packet_completion, b.peak_buffers, b.blocked_time,
        )
        assert list(a.peak_buffers) == list(topology.hosts)


def test_nis_are_built_on_first_lookup_only():
    topology, router = _fabric("irregular", 0)
    simulator = MulticastSimulator(topology, router)
    env, _tracer, _pool, registry = simulator._build_network()
    assert list(registry) == []
    first, second = topology.hosts[:2]
    ni = registry.lookup(first)
    assert registry.lookup(first) is ni and registry.get(first) is ni
    assert registry.get(second) is None
    with pytest.raises(KeyError):
        registry.lookup(("host", 10_000))
    registry.build_all()
    assert [n.host for n in registry] == [first] + [h for h in topology.hosts if h != first]


def test_late_ni_averages_its_buffer_from_the_fabric_opening():
    topology, router = _fabric("irregular", 0)
    env, _tracer, _pool, registry = MulticastSimulator(topology, router)._build_network()
    early = registry.lookup(topology.hosts[0])
    env.run(until=5.0)
    late = registry.lookup(topology.hosts[1])
    for ni in (early, late):
        ni.forward_buffer.change(+1)
    env.run(until=10.0)
    for ni in (early, late):
        ni.forward_buffer.finalize()
    assert late.forward_buffer.time_average == early.forward_buffer.time_average == 0.5


def test_backdating_a_moved_monitor_is_refused():
    from repro.sim import LevelMonitor

    monitor = LevelMonitor(Environment())
    monitor.change(+1)
    with pytest.raises(ValueError):
        monitor.backdate(0.0)
