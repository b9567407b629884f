"""E-surface — the vectorized analytic surface vs the per-point memo path.

The surface exists to make fig12-shaped sweeps (optimal k over a whole
``n × m`` grid) effectively free after one build.  This benchmark pins
that claim with numbers: one cold ``AnalyticSurface.build`` over the
full ``n ≤ 512, m ≤ 64`` grid, then the warm-path comparison — a
single ``optimal_k_grid`` extraction against the same grid walked
point-by-point through the *warm* ``optimal_k`` memo (every call an
``lru_cache`` hit, the best the point-by-point path can do).

Claim asserted: the whole-grid extraction beats the warm memo walk by
at least 10x (in practice it is far more), while returning bit-equal
values.  Runtime callers ask for one ``(n, m)`` at a time, where the
memo hit is the cheaper lookup; the speedup is a whole-grid one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import render_table
from repro.core import AnalyticSurface, optimal_k

N_MAX = 512
M_MAX = 64
N_VALUES = tuple(range(2, N_MAX + 1))
M_VALUES = tuple(range(1, M_MAX + 1))
ROUNDS = 5
SPEEDUP_FLOOR = 10.0


def _best_seconds(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_surface_warm_lookup_speedup(benchmark, show):
    surface = AnalyticSurface.build(N_MAX, M_MAX)

    # Warm the memo so its walk is pure lru_cache hits.
    for n in N_VALUES:
        for m in M_VALUES:
            optimal_k(n, m)

    def memo_walk():
        return [[optimal_k(n, m) for m in M_VALUES] for n in N_VALUES]

    def surface_extract():
        return surface.optimal_k_grid(N_VALUES, M_VALUES)

    memo_grid = memo_walk()
    surface_grid = benchmark.pedantic(surface_extract, rounds=ROUNDS, iterations=1)
    assert np.array_equal(np.asarray(memo_grid), surface_grid)  # bit-equal first

    memo_s = _best_seconds(memo_walk)
    surface_s = _best_seconds(surface_extract)
    speedup = memo_s / surface_s
    points = len(N_VALUES) * len(M_VALUES)

    show(
        render_table(
            ["path", "best time (ms)", "per point (ns)"],
            [
                ["warm memo walk", f"{memo_s * 1e3:.3f}", f"{memo_s / points * 1e9:.0f}"],
                ["surface extract", f"{surface_s * 1e3:.3f}", f"{surface_s / points * 1e9:.0f}"],
                ["cold build", f"{surface.build_seconds * 1e3:.3f}", "-"],
            ],
            title=(
                f"E-surface: optimal_k over {len(N_VALUES)}x{len(M_VALUES)} grid "
                f"— speedup {speedup:.0f}x"
            ),
        )
    )
    assert speedup >= SPEEDUP_FLOOR, (memo_s, surface_s)


def test_surface_build_amortizes_quickly(show):
    """The cold build pays for itself within one full-grid extraction.

    Building all tables costs less than walking the cold search over
    the same grid would (each cold optimal_k(n, m) runs the Theorem-3
    loop), so even single-shot sweeps lose nothing.
    """
    started = time.perf_counter()
    surface = AnalyticSurface.build(N_MAX, M_MAX)
    build_s = time.perf_counter() - started

    optimal_k.cache_clear()
    started = time.perf_counter()
    for n in N_VALUES[::7]:  # sampled cold scalar walk, scaled up below
        for m in M_VALUES:
            optimal_k(n, m)
    sampled_s = time.perf_counter() - started
    estimated_cold_s = sampled_s * 7

    show(
        render_table(
            ["path", "seconds"],
            [
                ["surface build (full grid)", f"{build_s:.3f}"],
                ["scalar cold walk (estimated)", f"{estimated_cold_s:.3f}"],
            ],
            title="E-surface: cold build vs cold scalar walk",
        )
    )
    assert surface.contains(N_MAX, M_MAX)
    assert build_s < estimated_cold_s
