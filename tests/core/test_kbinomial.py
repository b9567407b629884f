"""Lemma 1, T1, and the Fig. 11 k-binomial construction."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_kbinomial_tree,
    check_chain_locality,
    check_covers,
    check_fanout_cap,
    check_kbinomial_depth,
    clear_caches,
    coverage,
    fpfs_first_last,
    min_k_binomial,
    one_port_shape,
    optimal_k,
    optimal_k_exact,
    render_tree,
    root_fanout,
    split_segment,
    steps_needed,
)


class TestCoverage:
    def test_zero_steps_covers_only_source(self):
        assert coverage(0, 3) == 1

    def test_doubles_while_cap_unbinding(self):
        for s in range(0, 5):
            assert coverage(s, 5) == 2**s

    @pytest.mark.parametrize(
        "s,expected", [(3, 7), (4, 12), (5, 20), (6, 33), (7, 54), (8, 88)]
    )
    def test_k2_fibonacci_like_sequence(self, s, expected):
        assert coverage(s, 2) == expected

    def test_k1_is_linear(self):
        for s in range(10):
            assert coverage(s, 1) == s + 1

    def test_recurrence_holds_beyond_cap(self):
        k = 3
        for s in range(k + 1, 12):
            assert coverage(s, k) == 1 + sum(coverage(s - i, k) for i in range(1, k + 1))

    def test_monotone_in_s(self):
        for k in range(1, 6):
            values = [coverage(s, k) for s in range(12)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_monotone_in_k(self):
        for s in range(1, 12):
            values = [coverage(s, k) for k in range(1, 8)]
            assert values == sorted(values)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            coverage(-1, 2)
        with pytest.raises(ValueError):
            coverage(3, 0)


class TestStepsNeeded:
    def test_single_node_needs_zero_steps(self):
        assert steps_needed(1, 3) == 0

    def test_binomial_limit(self):
        # k >= ceil(log2 n): T1 = ceil(log2 n).
        assert steps_needed(64, 6) == 6
        assert steps_needed(64, 10) == 6

    def test_linear_limit(self):
        assert steps_needed(10, 1) == 9

    @pytest.mark.parametrize("n,k,expected", [(64, 2, 8), (64, 3, 7), (5, 2, 3), (7, 2, 3), (8, 2, 4)])
    def test_known_values(self, n, k, expected):
        assert steps_needed(n, k) == expected

    def test_t1_is_tight(self):
        for n in range(2, 100):
            for k in range(1, 7):
                t1 = steps_needed(n, k)
                assert coverage(t1, k) >= n
                assert coverage(t1 - 1, k) < n

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            steps_needed(0, 2)


class TestMinKBinomial:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 2), (5, 3), (64, 6), (65, 7)])
    def test_ceil_log2(self, n, expected):
        assert min_k_binomial(n) == expected

    def test_single_node(self):
        assert min_k_binomial(1) == 0


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_kbinomial_tree([0, 1, 2], 0)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            build_kbinomial_tree([], 2)

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            build_kbinomial_tree([0, 1, 1], 2)

    def test_single_node_chain(self):
        tree = build_kbinomial_tree([42], 3)
        assert len(tree) == 1 and tree.root == 42

    def test_full_capacity_root_has_k_children(self):
        # n = N(s, k) exactly: the root uses all k child slots.
        for k in (2, 3, 4):
            s = k + 3
            n = coverage(s, k)
            tree = build_kbinomial_tree(list(range(n)), k)
            assert tree.root_fanout == k

    def test_all_invariants_across_n_and_k(self):
        for n in range(2, 65):
            chain = list(range(n))
            for k in range(1, min_k_binomial(n) + 1):
                tree = build_kbinomial_tree(chain, k)
                check_covers(tree, chain)
                check_fanout_cap(tree, k)
                check_kbinomial_depth(tree, k)
                check_chain_locality(tree, chain)

    def test_k1_is_the_linear_chain(self):
        chain = list(range(6))
        tree = build_kbinomial_tree(chain, 1)
        for parent, child in zip(chain, chain[1:]):
            assert tree.children(parent) == (child,)

    def test_large_k_is_binomial_shape(self):
        # Power-of-two set with k = log2 n: textbook binomial fan-outs.
        tree = build_kbinomial_tree(list(range(16)), 4)
        assert tree.root_fanout == 4
        fanouts = sorted(tree.fanout(node) for node in tree.nodes())
        # Binomial tree on 16 nodes: one node of each fan-out 0..4 pattern.
        assert max(fanouts) == 4 and fanouts.count(0) == 8

    def test_children_ordered_by_decreasing_subtree(self):
        # Fig. 11: first child covers the largest (rightmost) segment.
        tree = build_kbinomial_tree(list(range(33)), 2)
        sizes = [tree.subtree_size(c) for c in tree.children(tree.root)]
        assert sizes == sorted(sizes, reverse=True)

    def test_arbitrary_hashable_nodes(self):
        chain = [("host", i) for i in (9, 4, 7, 1)]
        tree = build_kbinomial_tree(chain, 2)
        assert set(tree.nodes()) == set(chain)
        assert tree.root == ("host", 9)


class TestRootFanout:
    def test_matches_constructed_tree(self):
        for n in range(2, 80):
            for k in range(1, min_k_binomial(n) + 1):
                tree = build_kbinomial_tree(list(range(n)), k)
                assert root_fanout(n, k) == tree.root_fanout, (n, k)

    def test_never_exceeds_k(self):
        for n in range(2, 80):
            for k in range(1, 8):
                assert root_fanout(n, k) <= k


def tree_shape(n, k, m):
    """The shape :func:`one_port_shape` must give, read from the built
    tree and its one-port first/last receive steps."""
    tree = build_kbinomial_tree(range(n), k)
    ends = fpfs_first_last(tree, m)
    return tree.root_fanout, tree.max_fanout, max(last for _, last in ends.values())


@st.composite
def shape_cases(draw):
    """n in [2, 5000], k in [1, ceil(log2 n)] (the chain included), m in [1, 64]."""
    n = draw(st.integers(2, 5000))
    return n, draw(st.integers(1, min_k_binomial(n))), draw(st.integers(1, 64))


class TestSplit:
    def test_splits_by_lemma_1_caps(self):
        # N(6, 3) = 52 and N(5, 3) = 28: 64 nodes need 7 steps, and the
        # 63 destinations split 52 + 11.
        assert split_segment(64, 3) == (52, 11)
        assert split_segment(coverage(7, 3), 3) == tuple(coverage(7 - i, 3) for i in (1, 2, 3))
        assert split_segment(1, 4) == ()
        assert split_segment(10, 1) == (9,)

    def test_children_cover_the_segment_within_the_cap(self):
        for size in range(1, 300):
            for k in range(1, 10):
                sizes = split_segment(size, k)
                assert sum(sizes) == size - 1 and len(sizes) <= k
                assert all(0 < child < size for child in sizes)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_segment(0, 2)
        with pytest.raises(ValueError):
            split_segment(5, 0)
        with pytest.raises(ValueError):
            one_port_shape(5, 0, 1)
        with pytest.raises(ValueError):
            one_port_shape(5, 2, 0)


class TestOnePortShape:
    @settings(max_examples=60, deadline=None)
    @given(case=shape_cases())
    def test_shape_is_the_built_trees(self, case):
        """Fan-outs and the exact one-port total equal the tree's and
        :func:`fpfs_first_last`'s, without building the tree."""
        assert one_port_shape(*case) == tree_shape(*case)

    def test_small_sizes_exhaustively(self):
        for n in range(1, 70):
            for k in range(1, 8):
                for m in (1, 2, 5):
                    assert one_port_shape(n, k, m) == tree_shape(n, k, m), (n, k, m)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n, k, m",
        [(131072, optimal_k(131072, 1), 1), (65536, optimal_k(65536, 2), 2), (131072, 1, 1)],
    )
    def test_shape_at_the_plan_work_bound(self, n, k, m):
        """The corners of the plan service's ``MAX_PLAN_WORK``: 131,072
        × 1 (k = 17), 65,536 × 2, and a chain of 131,072 nodes."""
        assert one_port_shape(n, k, m) == tree_shape(n, k, m)


def recursive_kbinomial_tree(chain, k):
    """The Fig. 11 builder as first written, one recursion per tree
    level: the reference the iterative builder must equal."""
    from repro.core import MulticastTree

    def cover(tree, segment):
        root, rest = segment[0], segment[1:]
        if not rest:
            return
        s = steps_needed(len(segment), k)
        for i in range(1, k + 1):
            if not rest:
                break
            take = min(coverage(s - i, k), len(rest))
            child, rest = rest[len(rest) - take :], rest[: len(rest) - take]
            tree.add_child(root, child[0])
            cover(tree, child)

    tree = MulticastTree(chain[0])
    cover(tree, list(chain))
    return tree


def insertion_order(tree):
    """Every node with its parent and children, in the order the builder
    added them."""
    return [(node, tree._parent.get(node), tree.children(node)) for node in tree._children]


class TestNoRecursionDepth:
    """No build, search or drawing nests one call per tree level, so a
    chain (k = 1) over thousands of nodes works."""

    def test_iterative_builder_equals_the_recursive_one(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3000))  # the reference nests n calls at k = 1
        try:
            for n in [*range(1, 300), 511, 512, 513, 900]:
                chain = list(range(n))
                for k in range(1, 12):
                    built = build_kbinomial_tree(chain, k)
                    assert insertion_order(built) == insertion_order(
                        recursive_kbinomial_tree(chain, k)
                    ), (n, k)
        finally:
            sys.setrecursionlimit(limit)

    def test_a_5000_node_chain_builds(self):
        tree = build_kbinomial_tree(range(5000), 1)
        assert tree.children(4998) == (4999,)
        assert tree.max_fanout == 1 and len(tree) == 5000

    def test_chain_coverage_and_steps_are_closed_form(self):
        clear_caches()
        assert coverage(5000, 1) == 5001  # cold: the recurrence would nest 5000 calls
        assert steps_needed(100_000, 1) == 99_999
        assert [coverage(s, 1) for s in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_cold_coverage_fills_bottom_up(self):
        """A cold ``coverage(s, k >= 2)`` does not nest a call per step."""

        def lemma1(s, k):
            row = [2**t for t in range(min(s, k) + 1)]
            while len(row) <= s:
                row.append(1 + sum(row[-k:]))
            return row[s]

        rng = random.Random(1997)
        cases = [(1500, 2)] + [(rng.randint(0, 400), rng.randint(1, 12)) for _ in range(40)]
        for s, k in cases:
            clear_caches()
            assert coverage(s, k) == lemma1(s, k), (s, k)

    def test_a_miss_after_a_fill_reads_only_its_k_predecessors(self):
        clear_caches()
        coverage(300, 3)
        before = coverage.cache_info()
        coverage(301, 3)
        after = coverage.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)

    def test_exact_search_and_drawing_of_a_long_chain(self):
        assert optimal_k_exact(1100, 1) >= 1
        lines = render_tree(build_kbinomial_tree(range(1200), 1), show_steps=False).splitlines()
        assert len(lines) == 1200
        assert lines[-1] == " " * 3 * 1198 + "└─ 1199"
