"""A8 — extension: the theory at modern machine scales.

The conclusion claims the results "demonstrate significant potential to
be applied to current and future generation high performance systems".
This benchmark runs the (purely analytic) optimal-k machinery at n = 256
and n = 1024 and checks the paper's structural findings persist:
optimal k decreases with m, the k = 2 plateau extends, the predicted
k-binomial advantage over the binomial tree keeps growing with m, and
the NI table stays tiny.

The (n, m) grid is evaluated through the sweep engine
(:func:`repro.analysis.run_sweep`), so ``REPRO_WORKERS=N`` fans the
points out over processes and the memoized ``steps_needed`` cache
serves the repeated ``T1`` searches.
"""

from __future__ import annotations

from repro import OptimalKTable, min_k_binomial, optimal_k, predicted_steps
from repro.analysis import render_table, run_sweep, workers_from_env
from repro.core import cached_steps_needed

SCALES = (64, 256, 1024)
M_VALUES = (1, 4, 16, 64, 256)


def scale_point(n: int, m: int) -> list:
    """One (n, m) row: optimal k and the k-binomial vs binomial steps."""
    k = optimal_k(n, m)
    kbin = cached_steps_needed(n, k) + (m - 1) * k
    k_bino = min_k_binomial(n)
    bino = cached_steps_needed(n, k_bino) + (m - 1) * k_bino
    assert kbin == predicted_steps(n, k, m) and bino == predicted_steps(n, k_bino, m)
    return [k, kbin, bino, round(bino / kbin, 2)]


def measure():
    points = run_sweep(
        scale_point, {"n": SCALES, "m": M_VALUES}, workers=workers_from_env()
    )
    rows = [[p["n"], p["m"], *p.value] for p in points]
    table = OptimalKTable(n_max=256, m_max=64)
    return rows, table.memory_entries, table.dense_entries


def test_ext_scale(benchmark, show):
    rows, entries, dense = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        render_table(
            ["n", "m", "opt k", "k-binomial steps", "binomial steps", "ratio"],
            rows,
            title="A8: Theorem 3 at modern scales (analytic step counts)",
        ),
        f"optimal-k table for n<=256, m<=64: {entries} entries (dense bound {dense})",
    )
    by_nm = {(r[0], r[1]): r for r in rows}
    for n in SCALES:
        # k decreases with m and the advantage grows with m.
        ks = [by_nm[(n, m)][2] for m in M_VALUES]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        ratios = [by_nm[(n, m)][5] for m in M_VALUES]
        assert ratios[-1] == max(ratios)
        assert ratios[-1] > 3  # the gap widens well past 2x at m=256
        assert by_nm[(n, 1)][2] == min_k_binomial(n)
    assert entries < dense / 4
