"""Send-queue scheduling policies (FIFO vs round-robin)."""

from __future__ import annotations

import pytest

from repro.core import MulticastTree, build_flat_tree, build_linear_tree
from repro.mcast import MulticastSimulator
from repro.network import host
from repro.nic.scheduling import RoundRobinSendQueue
from repro.sim import Environment

from .helpers import FAST, star


class TestRoundRobinQueue:
    def test_single_class_is_fifo(self, env):
        q = RoundRobinSendQueue(env)
        got = []

        def consumer(env):
            for _ in range(3):
                got.append((yield q.get()))

        env.process(consumer(env))
        for item in ("a", "b", "c"):
            q.put(item)
        env.run()
        assert got == ["a", "b", "c"]

    def test_put_nowait_schedules_no_event(self, env):
        q = RoundRobinSendQueue(env)
        got = []

        def consumer(env):
            for _ in range(2):
                got.append((yield q.get()))

        env.process(consumer(env))
        env.run()
        q.put_nowait("a")
        q.put_nowait("b")
        assert len(env) == 1  # the get that "a" satisfied, nothing for the puts
        env.run()
        assert got == ["a", "b"] and q.size == 0

    def test_interleaves_message_classes(self, env):
        # Items without .packet.message land in one control class; use
        # stand-in objects with distinct message ids.
        class FakeMsg:
            def __init__(self, mid):
                self.msg_id = mid

        class FakeJob:
            def __init__(self, mid, tag):
                class P:
                    pass

                self.packet = P()
                self.packet.message = FakeMsg(mid)
                self.tag = tag

        q = RoundRobinSendQueue(env)
        for i in range(3):
            q.put(FakeJob(1, f"a{i}"))
        for i in range(3):
            q.put(FakeJob(2, f"b{i}"))
        got = []

        def consumer(env):
            for _ in range(6):
                job = yield q.get()
                got.append(job.tag)

        env.process(consumer(env))
        env.run()
        assert got == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_get_blocks_until_put(self, env):
        q = RoundRobinSendQueue(env)
        got = []

        def consumer(env):
            item = yield q.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(3)
            q.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(3, "late")]

    def test_size_tracking(self, env):
        q = RoundRobinSendQueue(env)
        q.put("x")
        q.put("y")
        assert q.size == 2


class TestSimulatorPolicy:
    def test_unknown_policy_rejected(self):
        topo, router = star(4)
        with pytest.raises(ValueError):
            MulticastSimulator(topo, router, send_policy="bogus")

    def test_single_multicast_unaffected_by_policy(self):
        topo, router = star(8)
        tree = build_linear_tree([host(i) for i in range(6)])
        fifo = MulticastSimulator(topo, router, params=FAST).run(tree, 8)
        rr = MulticastSimulator(
            topo, router, params=FAST, send_policy="round_robin"
        ).run(tree, 8)
        assert fifo.latency == rr.latency

    def test_round_robin_protects_small_flow_from_elephant(self):
        # Host 0 injects a 24-packet flat multicast (a long burst in its
        # send queue); host 6 relays a 2-packet message through host 0.
        # FIFO makes the small flow wait out the burst; round-robin
        # interleaves it.
        topo, router = star(10)
        elephant = build_flat_tree([host(0)] + [host(i) for i in range(1, 6)])
        mouse = MulticastTree(host(6))
        mouse.add_child(host(6), host(0))
        mouse.add_child(host(0), host(7))

        def mouse_latency(policy):
            sim = MulticastSimulator(topo, router, params=FAST, send_policy=policy)
            results = sim.run_many([(elephant, 24), (mouse, 2)])
            return results[1].latency

        assert mouse_latency("round_robin") < mouse_latency("fifo")

    def test_policies_conserve_delivery(self):
        # Same workload, both policies: everything arrives (the
        # simulator validates completion internally).
        topo, router = star(10)
        elephant = build_flat_tree([host(0)] + [host(i) for i in range(1, 6)])
        mouse = MulticastTree(host(6))
        mouse.add_child(host(6), host(0))
        mouse.add_child(host(0), host(7))
        for policy in ("fifo", "round_robin"):
            sim = MulticastSimulator(topo, router, params=FAST, send_policy=policy)
            results = sim.run_many([(elephant, 8), (mouse, 2)])
            assert len(results) == 2
