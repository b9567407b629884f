"""Tree repair: dead-subtree detection and re-planning over survivors.

A crash re-plan is :func:`repro.membership.amend.amend_plan` with the
dead subtrees as leavers, the fold ``chaos_point`` makes.  The
load-bearing property: the repaired tree over the ``n - f`` survivors
is *exactly* the tree a from-scratch Theorem-3 plan would build — same
re-optimized ``k*``, same Fig. 11 edges — and its height satisfies
Lemma 1 coverage.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_kbinomial_tree, coverage, optimal_k, steps_needed
from repro.core.optimal import predicted_steps
from repro.core.trees import MulticastTree
from repro.faults import repair_coverage, unreachable_set
from repro.membership import MembershipDelta, amend_chain, amend_plan


def _tree_edges(tree: MulticastTree) -> list:
    return list(tree.edges())


def replan_survivors(tree, chain, failed, m):
    """Re-plan over the survivors of ``failed``: the dead subtrees leave."""
    delta = MembershipDelta(leaves=tuple(unreachable_set(tree, failed)))
    return amend_plan(tree, chain, delta, m, base_ordering=chain)


class TestUnreachableSet:
    def _tree(self):
        # 0 -> 1 -> {2, 3}; 0 -> 4
        tree = MulticastTree(0)
        tree.add_child(0, 1)
        tree.add_child(1, 2)
        tree.add_child(1, 3)
        tree.add_child(0, 4)
        return tree

    def test_internal_failure_takes_the_subtree(self):
        assert unreachable_set(self._tree(), [1]) == frozenset({1, 2, 3})

    def test_leaf_failure_takes_only_the_leaf(self):
        assert unreachable_set(self._tree(), [4]) == frozenset({4})

    def test_multiple_failures_union(self):
        assert unreachable_set(self._tree(), [2, 4]) == frozenset({2, 4})

    def test_failed_source_is_unrepairable(self):
        with pytest.raises(ValueError, match="source failed"):
            unreachable_set(self._tree(), [0])

    def test_no_failures_means_no_losses(self):
        assert unreachable_set(self._tree(), []) == frozenset()


class TestSurvivingChain:
    def test_order_preserved(self):
        chain = [0, 1, 2, 3, 4]
        assert amend_chain(chain, MembershipDelta(leaves=(1, 3)), chain) == [0, 2, 4]

    def test_no_unreachable_is_identity(self):
        assert amend_chain([0, 1, 2], MembershipDelta(), [0, 1, 2]) == [0, 1, 2]


class TestRepairPlanValidation:
    def test_chain_must_start_at_the_source(self):
        tree = build_kbinomial_tree([0, 1, 2, 3], 2)
        with pytest.raises(ValueError, match="chain\\[0\\]"):
            replan_survivors(tree, [1, 0, 2, 3], [2], m=2)

    def test_chain_must_cover_the_tree(self):
        tree = build_kbinomial_tree([0, 1, 2, 3], 2)
        with pytest.raises(ValueError, match="missing tree nodes"):
            replan_survivors(tree, [0, 1, 2], [1], m=2)

    def test_m_must_be_positive(self):
        tree = build_kbinomial_tree([0, 1, 2, 3], 2)
        with pytest.raises(ValueError, match="m must be"):
            replan_survivors(tree, [0, 1, 2, 3], [1], m=0)


class TestRepairPlan:
    def test_everyone_dead_leaves_a_root_only_plan(self):
        chain = list(range(6))
        tree = build_kbinomial_tree(chain, 2)
        plan = replan_survivors(tree, chain, tree.children(tree.root), m=4)
        assert plan.chain == (0,)
        assert set(plan.departed) == set(chain[1:])
        assert plan.total_steps == 0 and plan.t1 == 0
        assert list(plan.tree.nodes()) == [0]
        assert repair_coverage(plan.chain, chain) == 0.0

    def test_step_overhead_compares_to_the_original_plan(self):
        chain = list(range(16))
        m = 4
        tree = build_kbinomial_tree(chain, optimal_k(16, m))
        plan = replan_survivors(tree, chain, [chain[-1]], m=m)
        assert plan.original_steps == predicted_steps(16, optimal_k(16, m), m)
        assert plan.step_overhead == plan.total_steps - plan.original_steps

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=48),
        m=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_repair_matches_a_from_scratch_plan(self, n, m, data):
        """Repair over n-f survivors == cold plan over n-f nodes (Lemma 1 tight)."""
        chain = list(range(n))
        tree = build_kbinomial_tree(chain, optimal_k(n, m))
        failed = data.draw(
            st.sets(st.sampled_from(chain[1:]), min_size=1, max_size=n - 2),
            label="failed",
        )

        plan = replan_survivors(tree, chain, failed, m=m)

        unreachable = unreachable_set(tree, failed)
        survivors = [node for node in chain if node not in unreachable]
        assert list(plan.chain) == survivors
        assert set(plan.departed) == set(unreachable)

        n_new = len(survivors)
        if n_new < 2:
            assert plan.total_steps == 0
            return

        # The re-optimized k and the rebuilt tree are exactly what a
        # from-scratch plan over the survivors produces.
        k_star = optimal_k(n_new, m)
        assert plan.k == k_star
        scratch = build_kbinomial_tree(survivors, k_star)
        assert _tree_edges(plan.tree) == _tree_edges(scratch)
        assert sorted(map(repr, plan.tree.nodes())) == sorted(map(repr, survivors))

        # Lemma 1: T1 steps cover all n-f survivors, T1 - 1 do not.
        assert plan.t1 == steps_needed(n_new, k_star)
        assert coverage(plan.t1, k_star) >= n_new
        if plan.t1 > 0:
            assert coverage(plan.t1 - 1, k_star) < n_new
        assert plan.tree.height <= plan.t1
        assert plan.total_steps == plan.t1 + (m - 1) * k_star
