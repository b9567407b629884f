"""A14 — infrastructure: the parallel sweep engine and its caches.

Three claims, each timed on a 240-point (n, m) grid:

1. **Parallel fan-out** — ``run_sweep(..., workers=4)`` is at least 2×
   faster than the serial path on a grid whose per-point cost is
   dominated by a blocking stall.  The stall (a 4 ms sleep) stands in
   for the wait-heavy portion of a real measurement — a DES run
   yielding to its event loop, result I/O, a remote probe — which is
   what a process pool overlaps.  (Pure CPU work cannot speed up on the
   single-core CI runner this bench must also pass on; the engine's
   fan-out, chunking, and deterministic merge are exercised all the
   same.)
2. **Warm caches** — re-running the purely analytic grid after the
   first pass is an order of magnitude faster because
   ``cached_kbinomial_steps`` (and the ``coverage``/``optimal_k``
   memos under it) serve every point; the hit counters prove it.
3. **Checkpoint replay** — a sweep with ``checkpoint=`` journals its
   chunks, and a re-run of the same sweep against the same journal
   resumes every point and journals nothing new.
"""

from __future__ import annotations

import time

from repro.analysis import run_sweep
from repro.core import cache_stats, cached_kbinomial_steps, clear_caches, optimal_k
from repro.durable import DURABLE_METRICS

#: 12 × 20 = 240 grid points (the acceptance floor is 200+).
N_VALUES = tuple(range(8, 128, 10))
M_VALUES = tuple(range(1, 21))
GRID = {"n": N_VALUES, "m": M_VALUES}
POINT_STALL_S = 0.004

#: Larger, pure-compute grid for the cold-vs-warm cache timing.
ANALYTIC_GRID = {"n": (64, 128, 256, 384, 512, 768, 1024), "m": (1, 2, 4, 8, 16, 32)}


def analytic_point(n: int, m: int) -> int:
    """Exact FPFS steps of the optimal k-binomial tree — cache-served."""
    return cached_kbinomial_steps(n, optimal_k(n, m), m)


def stalled_point(n: int, m: int) -> int:
    """`analytic_point` behind a fixed blocking stall (see module doc)."""
    time.sleep(POINT_STALL_S)
    return cached_kbinomial_steps(n, optimal_k(n, m), m)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure(checkpoint: str):
    out = {}

    # 1 — serial vs 4-worker parallel on the stall-dominated grid.
    serial, out["serial_s"] = _timed(lambda: run_sweep(stalled_point, GRID, workers=1))
    parallel, out["parallel_s"] = _timed(lambda: run_sweep(stalled_point, GRID, workers=4))
    out["points"] = len(serial)
    out["identical"] = [(p.params, p.value) for p in serial] == [
        (p.params, p.value) for p in parallel
    ]
    out["speedup"] = out["serial_s"] / out["parallel_s"]

    # 2 — cold vs warm in-process caches on the analytic grid.
    clear_caches()
    cold, out["cold_s"] = _timed(lambda: run_sweep(analytic_point, ANALYTIC_GRID, workers=1))
    warm, out["warm_s"] = _timed(lambda: run_sweep(analytic_point, ANALYTIC_GRID, workers=1))
    out["warm_identical"] = cold == warm
    out["cache"] = cache_stats()

    # 3 — checkpoint: the second run replays every point from the journal.
    before = DURABLE_METRICS.snapshot()
    journaled = run_sweep(analytic_point, ANALYTIC_GRID, workers=1, checkpoint=checkpoint)
    first = DURABLE_METRICS.snapshot()
    replayed, out["replay_s"] = _timed(
        lambda: run_sweep(analytic_point, ANALYTIC_GRID, workers=1, checkpoint=checkpoint)
    )
    second = DURABLE_METRICS.snapshot()
    out["first_journaled"] = first["chunks_journaled"] - before["chunks_journaled"]
    out["second_journaled"] = second["chunks_journaled"] - first["chunks_journaled"]
    out["second_resumed_points"] = second["points_resumed"] - first["points_resumed"]
    out["replay_identical"] = [p.value for p in journaled] == [p.value for p in replayed]
    return out


def test_sweep_engine(benchmark, show, tmp_path):
    out = benchmark.pedantic(
        lambda: measure(str(tmp_path / "sweep.ckpt")), rounds=1, iterations=1
    )
    kb = out["cache"]["kbinomial_steps"]
    show(
        f"A14: sweep engine on a {out['points']}-point grid\n"
        f"  serial   {out['serial_s']:.2f} s\n"
        f"  4 workers {out['parallel_s']:.2f} s  (speedup {out['speedup']:.1f}x)\n"
        f"  analytic grid cold {out['cold_s'] * 1e3:.0f} ms, "
        f"warm {out['warm_s'] * 1e3:.1f} ms "
        f"(kbinomial_steps cache: {kb.hits} hits / {kb.misses} misses)\n"
        f"  checkpoint replay {out['replay_s'] * 1e3:.1f} ms "
        f"({out['second_resumed_points']} points resumed from the journal)"
    )
    assert out["points"] == len(N_VALUES) * len(M_VALUES) >= 200
    assert out["identical"], "parallel merge must reproduce the serial records"
    assert out["speedup"] >= 2.0, f"4-worker speedup only {out['speedup']:.2f}x"
    # Warm re-run skips recomputation: the cache served every point.
    assert out["warm_identical"]
    assert kb.hits > 0 and kb.hits >= kb.misses
    assert out["warm_s"] < out["cold_s"]
    # Checkpoint round-trip: the first run journals its chunks, the
    # replay resumes every point and journals none.
    n_points = len(ANALYTIC_GRID["n"]) * len(ANALYTIC_GRID["m"])
    assert out["first_journaled"] >= 1
    assert out["second_resumed_points"] == n_points == 42
    assert out["second_journaled"] == 0
    assert out["replay_identical"]
