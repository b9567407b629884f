"""Theorem 3 optimal-k search and the §4.3.1 table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OptimalKTable,
    build_kbinomial_tree,
    fpfs_total_steps,
    linear_tree_steps,
    min_k_binomial,
    optimal_k,
    optimal_k_exact,
    predicted_steps,
)


class TestPredictedSteps:
    def test_formula(self):
        # n=64, k=2: T1=8, so 8 + (m-1)*2.
        assert predicted_steps(64, 2, 1) == 8
        assert predicted_steps(64, 2, 8) == 22

    def test_k1_equals_linear_tree(self):
        for n in (2, 5, 17):
            for m in (1, 3, 9):
                assert predicted_steps(n, 1, m) == linear_tree_steps(n, m)

    def test_trivial_set(self):
        assert predicted_steps(1, 3, 5) == 0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            predicted_steps(8, 2, 0)


class TestOptimalK:
    def test_single_packet_gives_binomial(self):
        # §5.1: "for m = 1, the optimal value of k = ceil(log2 n)".
        for n in (4, 16, 48, 64):
            assert optimal_k(n, 1) == min_k_binomial(n)

    def test_converges_to_small_k_for_long_messages(self):
        # §5.1: optimal k comes down as m grows.
        assert optimal_k(64, 8) == 2
        assert optimal_k(16, 32) == 1  # small sets cross to the linear tree

    def test_monotone_nonincreasing_in_m(self):
        for n in (16, 32, 48, 64):
            ks = [optimal_k(n, m) for m in range(1, 36)]
            assert all(a >= b for a, b in zip(ks, ks[1:])), (n, ks)

    def test_crossover_to_linear_happens_earlier_for_smaller_n(self):
        # §5.1: "the smaller the value of n, the smaller the value of m
        # at which T_L <= T_k".
        def first_linear_m(n):
            for m in range(1, 200):
                if optimal_k(n, m) == 1:
                    return m
            return None

        m16 = first_linear_m(16)
        m32 = first_linear_m(32)
        assert m16 is not None and m32 is not None and m16 < m32

    def test_never_exceeds_ceil_log2(self):
        for n in range(2, 65):
            for m in (1, 2, 8, 32):
                assert 1 <= optimal_k(n, m) <= min_k_binomial(n)

    def test_achieves_minimum_of_objective(self):
        for n in (7, 23, 64):
            for m in (1, 3, 8, 20):
                k_star = optimal_k(n, m)
                best = min(
                    predicted_steps(n, k, m) for k in range(1, min_k_binomial(n) + 1)
                )
                assert predicted_steps(n, k_star, m) == best

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_k(1, 4)
        with pytest.raises(ValueError):
            optimal_k(8, 0)


class TestOptimalKExact:
    def test_never_worse_than_paper_choice(self):
        for n in (5, 13, 33, 64):
            for m in (2, 4, 8):
                chain = list(range(n))
                paper_steps = fpfs_total_steps(
                    build_kbinomial_tree(chain, optimal_k(n, m)), m
                )
                exact_steps = fpfs_total_steps(
                    build_kbinomial_tree(chain, optimal_k_exact(n, m)), m
                )
                assert exact_steps <= paper_steps, (n, m)

    def test_matches_paper_on_full_trees(self):
        # When n = 2**s the constructed tree realizes the formula exactly,
        # so both searches agree on the achieved steps.
        for n in (16, 64):
            for m in (2, 8):
                chain = list(range(n))
                k_paper = optimal_k(n, m)
                k_exact = optimal_k_exact(n, m)
                s_paper = fpfs_total_steps(build_kbinomial_tree(chain, k_paper), m)
                s_exact = fpfs_total_steps(build_kbinomial_tree(chain, k_exact), m)
                assert s_paper == s_exact


class TestOptimalKTable:
    def test_lookup_matches_direct_computation(self):
        table = OptimalKTable(n_max=64, m_max=32)
        for n in (2, 9, 33, 64):
            for m in (1, 2, 5, 17, 32):
                assert table.lookup(n, m) == optimal_k(n, m)

    def test_compression_beats_dense_table(self):
        # §4.3.1/§5.1: optimal k is piecewise constant in m, so the
        # breakpoint encoding is far smaller than n_max * m_max.
        table = OptimalKTable(n_max=64, m_max=32)
        assert table.memory_entries < table.dense_entries / 4

    def test_lookup_beyond_m_max_clamps_to_tail(self):
        # Past m_max the answer is optimal_k's, not the last stored run:
        # the m = 8 run has k = 2, but at m = 100 the linear tree wins.
        table = OptimalKTable(n_max=16, m_max=8)
        assert table.runs_for(16)[-1] == (2, 2)
        assert table.lookup(16, 100) == optimal_k(16, 100) == 1

    def test_runs_are_strictly_decreasing_in_k(self):
        table = OptimalKTable(n_max=64, m_max=32)
        for n in (8, 32, 64):
            runs = table.runs_for(n)
            ks = [k for _, k in runs]
            assert ks == sorted(ks, reverse=True)
            assert len(set(ks)) == len(ks)

    def test_out_of_range_lookups(self):
        table = OptimalKTable(n_max=8, m_max=4)
        with pytest.raises(KeyError):
            table.lookup(9, 1)
        with pytest.raises(KeyError):
            table.lookup(8, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OptimalKTable(n_max=1, m_max=4)
        with pytest.raises(ValueError):
            OptimalKTable(n_max=4, m_max=0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_lookup_equals_optimal_k_for_every_m(data):
    """``lookup(n, m) == optimal_k(n, m)`` inside the table and past m_max."""
    n_max = data.draw(st.integers(min_value=2, max_value=64), label="n_max")
    m_max = data.draw(st.integers(min_value=1, max_value=32), label="m_max")
    n = data.draw(st.integers(min_value=2, max_value=n_max), label="n")
    m = data.draw(st.integers(min_value=1, max_value=10_000), label="m")
    assert OptimalKTable(n_max, m_max).lookup(n, m) == optimal_k(n, m)
