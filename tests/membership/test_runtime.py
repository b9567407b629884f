"""Churn runtime: graceful degradation, repair triggers, bit-identity."""

from __future__ import annotations

import random

import pytest

from repro import MulticastSimulator, build_kbinomial_tree, chain_for, optimal_k
from repro.analysis.experiments import _testbed
from repro.membership import (
    ChurnSimulator,
    MembershipEvent,
    MembershipSchedule,
    poisson_churn_schedule,
)
from repro.membership.sweep import POISSON_HORIZON, POISSON_RATE, TIME_LIMIT


@pytest.fixture(scope="module")
def testbed():
    return _testbed(1997)


def _setup(testbed, dests_count, m):
    topology, router, ordering = testbed
    source = ordering[0]
    dests = list(ordering[1 : dests_count + 1])
    return topology, router, ordering, source, dests


class TestEmptySchedule:
    def test_bit_identical_to_plain_simulator(self, testbed):
        """The cardinal invariant: no schedule, no hooks, no divergence."""
        topology, router, ordering, source, dests = _setup(testbed, 15, 4)
        chain = chain_for(source, dests, ordering)
        tree = build_kbinomial_tree(chain, optimal_k(len(chain), 4))
        base = MulticastSimulator(topology, router).run(tree, 4)

        churn = ChurnSimulator(topology, router, base_ordering=ordering)
        result = churn.run_churn(source, dests, 4)

        assert result.completion_time == base.completion_time
        assert result.stable == tuple(tree.destinations())
        assert result.stable_complete and result.delivery_to_stable == 1.0
        assert result.amends == 0 and result.catch_ups == 0
        assert sum(result.dropped.values()) == 0

    def test_no_gates_or_listeners_installed(self, testbed):
        topology, router, ordering, source, dests = _setup(testbed, 7, 2)
        churn = ChurnSimulator(topology, router, base_ordering=ordering)
        churn.run_churn(source, dests, 2)
        assert not churn._gates


class TestPoissonChurn:
    def test_stable_members_get_everything(self, testbed):
        """The acceptance criterion: joins AND leaves mid-multicast,
        100% delivery to every stable member."""
        topology, router, ordering, source, dests = _setup(testbed, 31, 8)
        members = [source] + dests
        pool = [h for h in ordering if h not in set(members)]
        schedule = poisson_churn_schedule(
            members,
            pool,
            rate=0.08,
            horizon=100.0,
            seed=0,
            exclude=(source,),
        )
        joins = len(schedule.joiners())
        leaves = len(schedule.leavers())
        assert joins > 0 and leaves > 0, "seed must mix joins and leaves"

        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 8, time_limit=20_000.0)

        assert result.stable_complete
        assert result.delivery_to_stable == 1.0
        assert set(result.joined) <= schedule.joiners()
        assert set(result.departed) <= schedule.leavers()
        assert result.completion_time > 0

    def test_departed_members_stop_receiving(self, testbed):
        topology, router, ordering, source, dests = _setup(testbed, 15, 8)
        victim = dests[3]
        schedule = MembershipSchedule((MembershipEvent(1.0, "leave", victim),))
        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 8, time_limit=20_000.0)
        assert result.stable_complete
        assert victim not in result.stable
        # Its gate dropped traffic after the leave.
        assert sum(result.dropped.values()) > 0 or len(
            result.delivered.get(victim, ())
        ) < 8


class TestRepairTrigger:
    def test_forwarding_leave_triggers_amend(self, testbed):
        """An early internal departure forces a repair re-multicast."""
        topology, router, ordering, source, dests = _setup(testbed, 15, 8)
        chain = chain_for(source, dests, ordering)
        tree = build_kbinomial_tree(chain, optimal_k(len(chain), 8))
        internal = next(n for n in chain[1:] if tree.children(n))
        schedule = MembershipSchedule((MembershipEvent(0.5, "leave", internal),))

        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 8, time_limit=20_000.0)
        assert result.amends == 1
        assert result.disruption_windows and result.max_disruption > 0
        assert result.stable_complete

    def test_late_leaf_leave_costs_nothing(self, testbed):
        """A leaf departing after completion disrupts nobody."""
        topology, router, ordering, source, dests = _setup(testbed, 15, 4)
        chain = chain_for(source, dests, ordering)
        tree = build_kbinomial_tree(chain, optimal_k(len(chain), 4))
        base = MulticastSimulator(topology, router).run(tree, 4)
        leaf = next(n for n in chain[1:] if not tree.children(n))
        schedule = MembershipSchedule(
            (MembershipEvent(base.completion_time + 10.0, "leave", leaf),)
        )
        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 4, time_limit=20_000.0)
        assert result.amends == 0
        assert result.stable_complete


class TestJoiners:
    def test_joiner_is_caught_up_with_staleness(self, testbed):
        topology, router, ordering, source, dests = _setup(testbed, 15, 4)
        members = {source, *dests}
        newcomer = next(h for h in ordering if h not in members)
        schedule = MembershipSchedule((MembershipEvent(5.0, "join", newcomer),))
        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 4, time_limit=20_000.0)
        assert result.joined == (newcomer,)
        assert result.catch_ups == 1
        assert len(result.delivered.get(newcomer, ())) == 4
        assert result.joiner_staleness[newcomer] > 0
        assert result.mean_staleness == result.joiner_staleness[newcomer]
        assert result.stable_complete

    def test_rejoin_after_leave_heals_the_gate(self, testbed):
        topology, router, ordering, source, dests = _setup(testbed, 15, 8)
        victim = dests[5]
        schedule = MembershipSchedule(
            (
                MembershipEvent(1.0, "leave", victim),
                MembershipEvent(60.0, "rejoin", victim),
            )
        )
        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, dests, 8, time_limit=20_000.0)
        # The rejoiner was caught up and ends with the full content.
        assert victim in result.joined
        assert len(result.delivered.get(victim, ())) == 8
        assert result.stable_complete

    @pytest.mark.parametrize("dests", [15, 31, 63])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_staleness_runs_from_the_catch_up_message(self, seed, dests):
        """A rejoiner's first deliveries predate its rejoin, so staleness
        must end at the catch-up's own last arrival: always positive."""
        topology, router, ordering = _testbed(1997 + seed)
        rng = random.Random(f"churn:{seed}:{dests}")  # churn_point's draw
        picked = rng.sample(list(topology.hosts), dests + 1)
        source, members = picked[0], picked[1:]
        pool = [h for h in ordering if h not in set(picked)]
        schedule = poisson_churn_schedule(
            members, pool, rate=POISSON_RATE, horizon=POISSON_HORIZON,
            seed=seed, exclude=(source,),
        )
        churn = ChurnSimulator(
            topology, router, schedule=schedule, base_ordering=ordering
        )
        result = churn.run_churn(source, members, 1, time_limit=TIME_LIMIT)
        assert result.joiner_staleness
        assert all(v > 0 for v in result.joiner_staleness.values()), result.joiner_staleness


class TestValidation:
    def test_m_must_be_positive(self, testbed):
        topology, router, ordering, source, dests = _setup(testbed, 7, 2)
        churn = ChurnSimulator(topology, router, base_ordering=ordering)
        with pytest.raises(ValueError, match="m must be"):
            churn.run_churn(source, dests, 0)
