"""Live plan amendment: the bit-identity-to-cold-replan contract.

The Hypothesis suite is the PR's acceptance property: for *any* legal
join/leave delta, ``amend_plan`` (with ``k_drift=0``) produces exactly
the chain, fan-out, and tree a cold re-plan over the new member set
would, deltas compose, and the empty delta is the identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_kbinomial_tree, optimal_k
from repro.faults import SourceFailedError
from repro.mcast import chain_for
from repro.membership import (
    MembershipDelta,
    amend_chain,
    amend_plan,
    amended_request,
    same_tree,
)
from repro.service import PlanRequest

BASE = [("host", i) for i in range(48)]


def _group(member_mask: int):
    """A member set from a bitmask over BASE (source = BASE[0], always in)."""
    members = [BASE[0]] + [BASE[i] for i in range(1, len(BASE)) if member_mask >> i & 1]
    outside = [h for h in BASE if h not in set(members)]
    return members, outside


# -- delta algebra ------------------------------------------------------------


class TestMembershipDelta:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both join and leave"):
            MembershipDelta(joins=(BASE[1],), leaves=(BASE[1],))

    def test_value_semantics(self):
        a = MembershipDelta(joins=(BASE[2], BASE[1]), leaves=(BASE[3],))
        b = MembershipDelta(joins=(BASE[1], BASE[2], BASE[2]), leaves=(BASE[3],))
        assert a == b and hash(a) == hash(b)
        assert bool(a) and not bool(MembershipDelta())

    def test_later_events_win_in_composition(self):
        join_then_leave = MembershipDelta(joins=(BASE[1],)) + MembershipDelta(
            leaves=(BASE[1],)
        )
        assert not join_then_leave
        leave_then_rejoin = MembershipDelta(leaves=(BASE[2],)) + MembershipDelta(
            joins=(BASE[2],)
        )
        assert not leave_then_rejoin

    def test_apply_order_survivors_then_joins(self):
        delta = MembershipDelta(joins=(BASE[9],), leaves=(BASE[2],))
        assert delta.apply([BASE[0], BASE[2], BASE[4]]) == (BASE[0], BASE[4], BASE[9])


# -- validation ---------------------------------------------------------------


class TestValidation:
    def test_source_leave_refused(self):
        with pytest.raises(SourceFailedError):
            amend_chain(BASE[:4], MembershipDelta(leaves=(BASE[0],)), BASE)

    def test_unknown_leaver_refused(self):
        with pytest.raises(ValueError, match="not a group member"):
            amend_chain(BASE[:4], MembershipDelta(leaves=(BASE[9],)), BASE)

    def test_duplicate_joiner_refused(self):
        with pytest.raises(ValueError, match="already a group member"):
            amend_chain(BASE[:4], MembershipDelta(joins=(BASE[2],)), BASE)

    def test_joiner_outside_ordering_refused(self):
        with pytest.raises(ValueError, match="not in base ordering"):
            amend_chain(BASE[:4], MembershipDelta(joins=(("host", 99),)), BASE)

    def test_amend_plan_checks_chain_against_tree(self):
        tree = build_kbinomial_tree(BASE[:4], 2)
        with pytest.raises(ValueError, match="chain\\[0\\]"):
            amend_plan(tree, BASE[1:5], MembershipDelta(), 2, base_ordering=BASE)
        with pytest.raises(ValueError, match="missing tree nodes"):
            amend_plan(tree, BASE[:3], MembershipDelta(), 2, base_ordering=BASE)

    def test_everyone_leaves_but_the_source(self):
        tree = build_kbinomial_tree(BASE[:4], 2)
        plan = amend_plan(
            tree,
            BASE[:4],
            MembershipDelta(leaves=tuple(BASE[1:4])),
            2,
            base_ordering=BASE,
        )
        assert plan.chain == (BASE[0],)
        assert plan.total_steps == 0 and list(plan.tree.nodes()) == [BASE[0]]


# -- the property suite -------------------------------------------------------

deltas = st.tuples(
    st.integers(min_value=0, max_value=(1 << len(BASE)) - 1),  # member mask
    st.sets(st.integers(min_value=1, max_value=len(BASE) - 1), max_size=6),  # leaves
    st.sets(st.integers(min_value=1, max_value=len(BASE) - 1), max_size=6),  # joins
    st.integers(min_value=1, max_value=16),  # m
)


def _legal_delta(members, outside, leave_idx, join_idx):
    member_set = set(members)
    leaves = tuple(h for h in (BASE[i] for i in leave_idx) if h in member_set)
    joins = tuple(
        h for h in (BASE[i] for i in join_idx) if h not in member_set and h not in leaves
    )
    return MembershipDelta(joins=joins, leaves=leaves)


@settings(max_examples=60, deadline=None)
@given(case=deltas)
def test_amend_is_bit_identical_to_cold_replan(case):
    mask, leave_idx, join_idx, m = case
    members, outside = _group(mask | 0b10)  # at least one destination
    delta = _legal_delta(members, outside, leave_idx, join_idx)
    tree = build_kbinomial_tree(members, optimal_k(len(members), m))
    amended = amend_plan(tree, members, delta, m, base_ordering=BASE)
    cold_chain = chain_for(members[0], list(amended.chain[1:]), BASE)
    assert list(amended.chain) == list(cold_chain)
    if amended.n >= 2:
        assert amended.k == optimal_k(amended.n, m)
        assert same_tree(
            amended.tree, build_kbinomial_tree(list(cold_chain), amended.k)
        )
        assert not amended.k_stale


@settings(max_examples=60, deadline=None)
@given(case=deltas, second_leave=st.sets(st.integers(1, len(BASE) - 1), max_size=4))
def test_amend_composes(case, second_leave):
    mask, leave_idx, join_idx, m = case
    members, outside = _group(mask | 0b10)
    d1 = _legal_delta(members, outside, leave_idx, join_idx)
    after_d1 = list(d1.apply(members))
    d2 = _legal_delta(after_d1, None, second_leave, ())
    tree = build_kbinomial_tree(members, optimal_k(len(members), m))

    step1 = amend_plan(tree, members, d1, m, base_ordering=BASE)
    if step1.n < 2:
        return  # nothing left to amend further
    step2 = amend_plan(step1.tree, step1.chain, d2, m, base_ordering=BASE)
    fused = amend_plan(tree, members, d1 + d2, m, base_ordering=BASE)
    assert step2.chain == fused.chain
    assert step2.k == fused.k
    assert same_tree(step2.tree, fused.tree)


@settings(max_examples=30, deadline=None)
@given(mask=st.integers(min_value=2, max_value=(1 << len(BASE)) - 1), m=st.integers(1, 16))
def test_empty_delta_is_the_identity(mask, m):
    members, _ = _group(mask | 0b10)
    tree = build_kbinomial_tree(members, optimal_k(len(members), m))
    amended = amend_plan(tree, members, MembershipDelta(), m, base_ordering=BASE)
    assert list(amended.chain) == list(members)
    assert same_tree(amended.tree, tree)
    assert amended.step_overhead == 0
    assert not amended.departed and not amended.joined


# -- deferred re-optimization -------------------------------------------------


def test_k_drift_defers_reoptimization_and_marks_stale():
    members = BASE[:33]
    m = 8
    k0 = optimal_k(len(members), m)
    tree = build_kbinomial_tree(members, k0)
    delta = MembershipDelta(leaves=(members[5],))
    lazy = amend_plan(
        tree, members, delta, m, base_ordering=BASE, k_drift=0.5, epoch_k=k0
    )
    assert lazy.k == k0 and lazy.k_stale
    assert lazy.epoch_n == len(members)  # epoch not advanced
    eager = amend_plan(tree, members, delta, m, base_ordering=BASE)
    assert not eager.k_stale and eager.epoch_n == lazy.n


# -- the positional (service) twin -------------------------------------------


class TestAmendedRequest:
    def test_folds_join_and_leave(self):
        request = amended_request(16, 4, exclude=(3,), join=2, leave=(5, 9))
        assert request == PlanRequest(n=18, m=4, exclude=(3, 5, 9))

    def test_source_position_refused(self):
        with pytest.raises(SourceFailedError):
            amended_request(16, 4, leave=(0,))

    def test_leave_out_of_range_refused(self):
        with pytest.raises(ValueError, match="outside"):
            amended_request(16, 4, leave=(16,))

    def test_join_validation(self):
        with pytest.raises(ValueError, match="join"):
            amended_request(16, 4, join=-1)
        with pytest.raises(ValueError, match="join"):
            amended_request(16, 4, join=True)
