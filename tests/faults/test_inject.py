"""Fault injection against the DES: every kind, drop accounting, determinism."""

from __future__ import annotations

import pytest

from repro.core import build_kbinomial_tree
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    FaultyMulticastSimulator,
    worst_case_root_child,
)
from repro.mcast import MulticastSimulator, cco_ordering, chain_for
from repro.network import UpDownRouter, build_irregular_network, host
from repro.nic import FPFSInterface, ReliableFPFSInterface

#: Strike time (µs): past fast_params' t_s=10 source hand-off, so the
#: message is mid-flight when the fault lands.
AT = 12.0


def _chain(topology, n=8):
    return sorted(topology.hosts, key=lambda h: h[1])[:n]


@pytest.fixture
def testbed(small_topology, small_router, fast_params):
    chain = _chain(small_topology)
    # k=3 is the full binomial at n=8: the root has three children, so
    # killing the largest subtree still leaves survivors to assert on
    # (at k<=2 the first child would own the entire destination set).
    tree = build_kbinomial_tree(chain, 3)
    baseline = MulticastSimulator(small_topology, small_router, params=fast_params).run(tree, 4)

    def sim(schedule=None):
        return FaultyMulticastSimulator(
            small_topology, small_router, schedule=schedule, params=fast_params
        )

    return sim, tree, chain, baseline


class TestEmptySchedule:
    def test_results_identical_to_base_simulator(self, testbed):
        sim, tree, _, baseline = testbed
        result = sim().run(tree, 4)
        assert result.latency == baseline.latency
        assert result.packet_completion == baseline.packet_completion
        assert result.destination_completion == baseline.destination_completion
        assert result.peak_buffers == baseline.peak_buffers

    def test_no_gates_installed(self, testbed):
        sim, tree, _, _ = testbed
        simulator = sim()
        simulator.run(tree, 4)
        assert simulator.last_injector is not None
        assert simulator.last_injector.gates == {}

    def test_degraded_view_reports_full_coverage(self, testbed):
        sim, tree, _, baseline = testbed
        degraded = sim().run_degraded(tree, 4)
        assert degraded.coverage == 1.0
        assert degraded.delivery_ratio == 1.0
        assert degraded.completion_time == baseline.completion_time
        assert degraded.dropped == {"sends": 0, "recvs": 0, "links": 0, "buffer": 0}


class TestNodeCrash:
    def test_crash_starves_exactly_the_subtree(self, testbed):
        sim, tree, _, _ = testbed
        victim = tree.children(tree.root)[0]
        simulator = sim(worst_case_root_child(tree, at=AT))
        result = simulator.run_degraded(tree, 4)

        expected_lost = {victim}
        stack = [victim]
        while stack:
            for child in tree.children(stack.pop()):
                expected_lost.add(child)
                stack.append(child)
        assert set(result.lost_destinations) == expected_lost
        assert 0.0 < result.coverage < 1.0
        # Survivors still hold the complete message.
        for dest in result.complete_destinations:
            assert result.delivered[dest] == tuple(range(4))
        assert sum(simulator.last_injector.dropped().values()) > 0
        assert simulator.last_injector.crashed_nodes() == {victim}

    def test_crash_before_start_loses_the_whole_subtree_cleanly(self, testbed):
        sim, tree, _, _ = testbed
        victim = tree.children(tree.root)[0]
        result = sim(FaultSchedule((FaultEvent(0.0, "node_crash", victim),))).run_degraded(
            tree, 4
        )
        assert victim in result.lost_destinations
        assert result.delivered[victim] == ()

    def test_unknown_target_raises(self, testbed):
        sim, tree, _, _ = testbed
        bad = FaultSchedule((FaultEvent(0.0, "node_crash", host(999)),))
        with pytest.raises(ValueError, match="not a host"):
            sim(bad).run_degraded(tree, 4)


class TestDelayFaults:
    def test_stall_delays_but_loses_nothing(self, testbed):
        sim, tree, _, baseline = testbed
        victim = tree.children(tree.root)[0]
        stall = FaultSchedule((FaultEvent(AT, "ni_stall", victim, duration=40.0),))
        simulator = sim(stall)
        result = simulator.run(tree, 4)  # strict collector: nothing may be lost
        assert result.completion_time > baseline.completion_time
        assert sum(simulator.last_injector.dropped().values()) == 0

    def test_slowdown_heals_after_its_window(self, testbed):
        sim, tree, _, baseline = testbed
        victim = tree.children(tree.root)[0]

        def completion(duration):
            schedule = FaultSchedule(
                (FaultEvent(AT, "ni_slowdown", victim, factor=8.0, duration=duration),)
            )
            return sim(schedule).run(tree, 4).completion_time

        transient = completion(4.0)
        permanent = completion(None)
        assert baseline.completion_time < transient < permanent

    def test_link_degrade_adds_delay_without_loss(self, testbed):
        sim, tree, chain, baseline = testbed
        degrade = FaultSchedule(
            (FaultEvent(0.0, "link_degrade", chain[-1], delay_us=7.0),)
        )
        simulator = sim(degrade)
        result = simulator.run(tree, 4)
        assert result.completion_time > baseline.completion_time
        assert sum(simulator.last_injector.dropped().values()) == 0


class TestLossFaults:
    def test_endpoint_link_drop_loses_the_leaf(self, testbed):
        sim, tree, chain, _ = testbed
        leaf = chain[-1]
        assert not tree.children(leaf)
        simulator = sim(FaultSchedule((FaultEvent(0.0, "link_drop", leaf),)))
        result = simulator.run_degraded(tree, 4)
        assert leaf in result.lost_destinations
        assert simulator.last_injector.dropped()["links"] > 0

    def test_transient_link_drop_heals(self, testbed):
        sim, tree, chain, _ = testbed
        leaf = chain[-1]
        # The outage closes before the multicast starts moving packets,
        # so nothing is lost despite a real drop window.
        blip = FaultSchedule((FaultEvent(0.0, "link_drop", leaf, duration=5.0),))
        result = sim(blip).run_degraded(tree, 4)
        assert result.coverage == 1.0

    def test_buffer_exhaustion_starves_the_forwarder(self, testbed):
        sim, tree, _, _ = testbed
        forwarder = tree.children(tree.root)[0]
        assert tree.children(forwarder)
        simulator = sim(
            FaultSchedule((FaultEvent(0.0, "buffer_exhaustion", forwarder, capacity=0),))
        )
        result = simulator.run_degraded(tree, 4)
        assert forwarder in result.lost_destinations
        assert simulator.last_injector.dropped()["buffer"] > 0

    def test_leaves_ignore_buffer_caps(self, testbed):
        sim, tree, chain, _ = testbed
        leaf = chain[-1]
        assert not tree.children(leaf)
        # A pure receiver never needs a forwarding slot, so a zero cap
        # at a leaf must not drop anything (§2.5: the cap is on the
        # forwarding pool, not reception).
        result = sim(
            FaultSchedule((FaultEvent(0.0, "buffer_exhaustion", leaf, capacity=0),))
        ).run_degraded(tree, 4)
        assert result.coverage == 1.0


class TestDeterminism:
    def test_same_schedule_same_outcome(self, testbed):
        sim, tree, _, _ = testbed
        schedule = worst_case_root_child(tree, at=AT)
        first = sim(schedule).run_degraded(tree, 4)
        second = sim(schedule).run_degraded(tree, 4)
        assert first.delivered == second.delivered
        assert first.destination_completion == second.destination_completion
        assert first.dropped == second.dropped

    def test_applied_log_records_strike_times(self, testbed):
        sim, tree, _, _ = testbed
        simulator = sim(worst_case_root_child(tree, at=AT))
        simulator.run_degraded(tree, 4)
        applied = simulator.last_injector.applied
        assert len(applied) == 1
        when, event = applied[0]
        assert when == AT and event.kind == "node_crash"


class TestReliableNI:
    """The reliable NI runs the same schedules: its NACKs find their
    parent in the forwarding tables every simulator installs."""

    @pytest.fixture(scope="class")
    def seed0(self):
        topology = build_irregular_network(seed=0)
        router = UpDownRouter(topology)
        ordering = cco_ordering(topology, router)
        tree = build_kbinomial_tree(chain_for(ordering[0], list(ordering[1:32]), ordering), 2)
        return topology, router, tree, tree.children(tree.root)[0]

    def test_stall_delays_but_completes(self, seed0):
        topology, router, tree, child = seed0
        schedule = FaultSchedule([FaultEvent(20.0, "ni_stall", child, duration=100.0)])
        latency = {
            cls: FaultyMulticastSimulator(topology, router, schedule=schedule, ni_class=cls)
            .run(tree, 8)
            .latency
            for cls in (FPFSInterface, ReliableFPFSInterface)
        }
        assert latency[FPFSInterface] == pytest.approx(215.5)
        assert latency[ReliableFPFSInterface] == pytest.approx(248.3)

    def test_crash_degrades_like_fpfs(self, seed0):
        topology, router, tree, child = seed0
        schedule = FaultSchedule([FaultEvent(20.0, "node_crash", child)])
        results = [
            FaultyMulticastSimulator(topology, router, schedule=schedule, ni_class=cls)
            .run_degraded(tree, 8, time_limit=5000.0)
            for cls in (FPFSInterface, ReliableFPFSInterface)
        ]
        for result in results:
            assert (result.packets_delivered, result.packets_expected) == (101, 248)
        assert results[0].delivered == results[1].delivered

    def test_degraded_run_requires_a_time_limit(self, seed0):
        # Unbounded, the orphaned NIs' NACK timers would re-arm forever.
        topology, router, tree, child = seed0
        schedule = FaultSchedule([FaultEvent(20.0, "node_crash", child)])
        simulator = FaultyMulticastSimulator(
            topology, router, schedule=schedule, ni_class=ReliableFPFSInterface
        )
        with pytest.raises(ValueError, match="time_limit"):
            simulator.run_degraded(tree, 8)
