"""Property tests for the analytic surface (:mod:`repro.core.surface`).

The vectorized build leans on structural facts the closed forms only
imply; these tests pin each one directly, over hypothesis-drawn points:

* Lemma-1 coverage columns are *strictly* increasing in ``s`` (the
  precondition for ``searchsorted`` computing ``steps_needed``) and
  monotone non-decreasing in ``k``, with the exact boundary
  ``N(s, k) = 2**s`` whenever ``k >= s``.
* Out-of-bounds lookups raise :class:`KeyError`; in-bounds boundaries
  (``n = 2``, ``m = 1``, ``k`` past the last column) behave like the
  scalar oracle.
* Argmin tie-breaking reproduces the scalar searches exactly: the paper
  variant takes the *largest* minimizing ``k``, the exact variant the
  *smallest*.
* ``save`` → ``load`` round-trips every table bit-identically through
  the CRC-verified durable store.
* The pipeline prefix property the exact build exploits: one FPFS run
  at ``m_max`` packets yields the totals of every smaller ``m``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AnalyticSurface,
    build_kbinomial_tree,
    coverage,
    fpfs_total_steps,
    min_k_binomial,
    optimal_k,
    optimal_k_exact,
    predicted_steps,
    steps_needed,
)
from repro.core.surface import _exact_completion

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: One shared read-only surface; every property draws points inside it.
N_MAX = 256
M_MAX = 48
SURFACE = AnalyticSurface.build(N_MAX, M_MAX)

ns = st.integers(min_value=2, max_value=N_MAX)
ms = st.integers(min_value=1, max_value=M_MAX)
ks = st.integers(min_value=1, max_value=SURFACE.k_max)


@RELAXED
@given(k=ks)
def test_coverage_columns_strictly_increase(k):
    """Strict monotonicity in s — what searchsorted correctness needs."""
    previous = None
    s = 0
    while True:
        try:
            value = SURFACE.coverage(s, k)
        except KeyError:
            break
        if previous is not None:
            assert value > previous, (s, k)
        previous = value
        s += 1
    assert s >= 2  # every column holds at least N(0,k)=1 and N(1,k)=2


@RELAXED
@given(s=st.integers(min_value=0, max_value=8), k=ks)
def test_coverage_monotone_in_k_with_power_boundary(s, k):
    """N(s, k) never shrinks as k grows, and saturates at 2**s for k >= s."""
    if k < SURFACE.k_max:
        assert SURFACE.coverage(s, k) <= SURFACE.coverage(s, k + 1), (s, k)
    if k >= s:
        assert SURFACE.coverage(s, k) == 2**s, (s, k)


@RELAXED
@given(n=ns, k=ks)
def test_boundaries_match_scalar(n, k):
    """Edges: n=1/n=2, m=1, and k clamped past the last column."""
    assert SURFACE.steps_needed(1, k) == steps_needed(1, k) == 0
    assert SURFACE.steps_needed(n, k + SURFACE.k_max) == steps_needed(n, k + SURFACE.k_max)
    assert SURFACE.optimal_k(2, 1) == optimal_k(2, 1) == 1
    assert SURFACE.optimal_k(n, 1) == optimal_k(n, 1)
    assert SURFACE.predicted_steps(n, k, 1) == SURFACE.steps_needed(n, k)


@RELAXED
@given(n=ns, m=ms)
def test_out_of_bounds_raises_keyerror(n, m):
    """Every lookup past the horizon fails loudly with KeyError."""
    assert not SURFACE.contains(N_MAX + n, m)
    with pytest.raises(KeyError):
        SURFACE.optimal_k(N_MAX + n, m)
    with pytest.raises(KeyError):
        SURFACE.optimal_k(n, M_MAX + m)
    with pytest.raises(KeyError):
        SURFACE.steps_needed(N_MAX + n, 1)
    with pytest.raises(KeyError):
        SURFACE.optimal_k(1, m)  # n < 2: nothing to plan


@RELAXED
@given(n=ns, m=ms)
def test_paper_tie_break_takes_largest_minimizer(n, m):
    """surface.optimal_k == max of the argmin set == the scalar search."""
    k_hi = min_k_binomial(n)
    objective = {k: predicted_steps(n, k, m) for k in range(1, k_hi + 1)}
    best = min(objective.values())
    winners = [k for k, v in objective.items() if v == best]
    chosen = SURFACE.optimal_k(n, m)
    assert chosen == max(winners), (n, m, winners)
    assert chosen == optimal_k(n, m), (n, m)
    assert SURFACE.optimal_steps(n, m) == best, (n, m)


@RELAXED
@given(n=st.integers(min_value=2, max_value=28), m=st.integers(min_value=1, max_value=8))
def test_exact_tie_break_takes_smallest_minimizer(n, m):
    """Exact variant: smallest minimizing k, matching the scalar `<` loop."""
    surf = AnalyticSurface.build(28, 8, exact=True)
    k_hi = min_k_binomial(n)
    objective = {
        k: fpfs_total_steps(build_kbinomial_tree(list(range(n)), k), m)
        for k in range(1, k_hi + 1)
    }
    best = min(objective.values())
    winners = [k for k, v in objective.items() if v == best]
    chosen = surf.optimal_k_exact(n, m)
    assert chosen == min(winners), (n, m, winners)
    assert chosen == optimal_k_exact(n, m), (n, m)


@RELAXED
@given(
    n_max=st.integers(min_value=2, max_value=64),
    m_max=st.integers(min_value=1, max_value=16),
    exact=st.booleans(),
    tag=st.integers(min_value=0, max_value=10**9),
)
def test_save_load_round_trips_bit_identically(n_max, m_max, exact, tag, tmp_path):
    """Persist through the CRC-stamped store and get every bit back."""
    surf = AnalyticSurface.build(n_max, m_max, exact=exact)
    path = tmp_path / f"surface-{tag}.json"
    surf.save(path)
    loaded = AnalyticSurface.load(path)
    assert loaded.n_max == surf.n_max and loaded.m_max == surf.m_max
    assert loaded.k_max == surf.k_max
    assert loaded.exact_ports == surf.exact_ports
    for a, b in zip(loaded._coverage_cols, surf._coverage_cols):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded._steps, surf._steps)
    assert np.array_equal(loaded._optimal, surf._optimal)
    assert np.array_equal(loaded._best_steps, surf._best_steps)
    if exact:
        assert np.array_equal(loaded._exact_optimal, surf._exact_optimal)
        assert np.array_equal(loaded._exact_best_steps, surf._exact_best_steps)


@RELAXED
@given(
    n=st.integers(min_value=2, max_value=32),
    m_max=st.integers(min_value=1, max_value=10),
    ports=st.integers(min_value=1, max_value=2),
)
def test_pipeline_prefix_property(n, m_max, ports):
    """One FPFS run at m_max yields every smaller m's total exactly.

    This is the fact the exact build stands on: packets after ``p``
    never move ``p``'s receive schedule, so the running maximum of
    per-packet completions at ``m_max`` equals each standalone total.
    """
    for k in range(1, min_k_binomial(n) + 1):
        totals = _exact_completion(n, k, m_max, ports)
        tree = build_kbinomial_tree(list(range(n)), k)
        for m in range(1, m_max + 1):
            assert totals[m - 1] == fpfs_total_steps(tree, m, ports=ports), (n, k, m)
