"""Observatory overhead: profiling must cost <=5% on, <=1% off.

The performance observatory (``repro.obs``) promises two numbers:

* ``run_sweep`` with a *disabled* :class:`SamplingProfiler` attached
  stays within 1% paired wall-clock of the plain sweep — the attach
  points in the sweep driver, plan server, and session simulator are
  wired permanently, so the off switch must be free;
* with 100 Hz sampling *on*, the sampler thread's ``_current_frames``
  walks must stay within 5% — cheap enough to leave running against
  production-shaped sweeps, which is the whole point of continuous
  profiling.

Run with ``pytest benchmarks/bench_observatory.py``.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.analysis.sweep import run_sweep
from repro.obs import SamplingProfiler

#: Paired timing rounds; the best per-round ratio absorbs noise.
ROUNDS = 11
#: Grid points per sweep — the fig13/fig14 shape (many ~1 ms points),
#: long enough that a 100 Hz sampler lands tens of samples per run.
GRIDS = {"n": list(range(1, 11)), "m": list(range(1, 11))}


def measure(n, m):
    """A model-evaluation stand-in: arithmetic-heavy, ~1.5 ms per point."""
    acc = 0.0
    for i in range(1, 18000):
        acc += (n * i) % 7 + (m / i)
    return {"v": acc, "n": n, "m": m}


def test_disabled_profiler_records_nothing():
    """The off switch is structural: no thread, no samples, no stacks."""
    profiler = SamplingProfiler(enabled=False)
    run_sweep(measure, {"n": [1, 2], "m": [1]}, profiler=profiler)
    assert profiler._thread is None
    assert profiler.samples == 0
    assert profiler.to_collapsed() == ""


def test_sampling_profile_captures_the_sweep(capsys):
    """At 400 Hz a real sweep yields real stacks rooted in the sweep driver."""
    deadline = time.perf_counter() + 30.0
    while True:
        profiler = SamplingProfiler(hz=400.0, seed=0)
        run_sweep(measure, GRIDS, profiler=profiler)
        if profiler.samples > 0 or time.perf_counter() > deadline:
            break
    snap = profiler.snapshot()
    assert snap["samples"] > 0, "sampler took no samples in 30 s of sweeps"
    stacks = profiler.stack_counts()
    assert any("run_sweep" in label for stack in stacks for label in stack)
    with capsys.disabled():
        print(
            f"\nsweep profile: {snap['samples']} samples, "
            f"{snap['distinct_stacks']} stacks, "
            f"effective {snap['effective_hz']:.0f} Hz"
        )


def _paired_times(make_profiler):
    """Per-round (plain, profiled) timings, measured back-to-back.

    Pairing inside every round makes the per-round *ratio* robust:
    machine-wide drift slows both sides together and cancels in the
    ratio.  Each profiled run gets a fresh profiler so no round pays
    for a previous round's accumulated stack table.
    """
    rounds = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            gc.collect()
            start = time.perf_counter()
            run_sweep(measure, GRIDS)
            plain = time.perf_counter() - start

            profiler = make_profiler()
            gc.collect()
            start = time.perf_counter()
            run_sweep(measure, GRIDS, profiler=profiler)
            profiled = time.perf_counter() - start
            rounds.append((plain, profiled))
    finally:
        if gc_was_enabled:
            gc.enable()
    return rounds


def _gate(make_profiler, bound, label, capsys):
    """Shared gate body: best paired ratio against ``bound``.

    The gate is the *best* per-round ratio over paired timings (the
    A16/A17 convention): timing noise is round-local and inflates
    individual ratios both ways, but a genuinely systematic slowdown
    inflates every round's ratio, so it cannot hide from the minimum.
    The median is reported for context.
    """
    # Warm both code paths (imports, thread machinery) before timing.
    run_sweep(measure, GRIDS)
    run_sweep(measure, GRIDS, profiler=make_profiler())

    rounds = _paired_times(make_profiler)
    ratios = [profiled / plain for plain, profiled in rounds]
    overhead = min(ratios) - 1.0
    median = statistics.median(ratios) - 1.0
    plain_best = min(plain for plain, _ in rounds)
    profiled_best = min(profiled for _, profiled in rounds)

    with capsys.disabled():
        print(
            f"\n{label} overhead: plain {plain_best * 1e3:.2f} ms, "
            f"profiled {profiled_best * 1e3:.2f} ms, "
            f"paired overhead best {overhead * 100:+.2f}% / median {median * 100:+.2f}%"
        )
    assert overhead <= bound, (
        f"{label} overhead {overhead * 100:.2f}% exceeds {bound * 100:.0f}%"
    )


def test_disabled_profiler_overhead_within_1pct(capsys):
    """Wall-clock: an attached-but-disabled profiler is free (<=1%)."""
    _gate(lambda: SamplingProfiler(enabled=False), 0.01, "disabled profiler", capsys)


def test_sampling_at_100hz_overhead_within_5pct(capsys):
    """Wall-clock: continuous 100 Hz sampling stays within 5%."""
    _gate(lambda: SamplingProfiler(hz=100.0, seed=0), 0.05, "100 Hz sampling", capsys)
