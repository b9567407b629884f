"""Parameter sweeps: one chunk loop, in-process or on a process pool.

:func:`sweep` runs a measurement function over the cross product of
named parameter grids, yielding flat result records that render
directly through :func:`repro.analysis.tables.render_table` or load
into numpy for analysis.

:func:`run_sweep` is the engine behind it.  Every sweep takes the same
loop: expand the grid, cut the points into chunks, replay the chunks a
``checkpoint`` journal already holds, then measure the rest and collect
them **in chunk order**, journaling each one as it is collected.

* **parallel execution** — ``workers=N`` runs the chunks on a
  ``concurrent.futures.ProcessPoolExecutor`` as picklable
  ``(index, params)`` task lists; collecting in submission order keeps
  a parallel sweep byte-identical to a serial one (a regression test
  pins this);
* **serial fallback** — ``workers=1``, or a ``measure`` that cannot be
  pickled (lambdas, closures), runs the chunks in-process;
* **checkpoint/resume** — ``checkpoint=`` a path journals every
  collected chunk through a write-ahead
  :class:`~repro.durable.journal.ChunkJournal`; a restarted sweep
  (SIGKILL, power loss, CI timeout) replays the journaled chunks, and
  the grid-order merge makes the resumed run byte-identical to an
  uninterrupted one (``tests/durable/test_kill_resume.py`` pins this
  with a real SIGKILL).

Without a checkpoint the loop writes nothing to disk
(``benchmarks/bench_durable_overhead.py`` bounds what journaling costs
when it is on).  A worker that dies mid-chunk fails the sweep at once
with ``BrokenProcessPool``, after every chunk collected before it was
journaled; a point that hangs is bounded by the caller (for example
``timeout --signal=KILL`` around a ``--checkpoint`` run, which a rerun
resumes).

Worker processes keep their :mod:`repro.core.cache` memo tables across
the points of a sweep (the executor reuses processes), which is where
the warm-cache speedups of ``benchmarks/bench_sweep_engine.py`` come
from.
"""

from __future__ import annotations

import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..durable.errors import ValidationError, check_positive_int
from ..durable.journal import ChunkJournal, sweep_fingerprint
from ..durable.metrics import DURABLE_METRICS
from ..obs.tracer import Tracer

__all__ = [
    "SweepPoint",
    "run_sweep",
    "sweep",
    "sweep_table",
    "workers_from_env",
]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its measured value."""

    params: Dict[str, object]
    value: object

    def __getitem__(self, key: str) -> object:
        return self.params[key]


def workers_from_env(default: int = 1) -> int:
    """Worker count from ``REPRO_WORKERS`` (benchmark drivers' knob)."""
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return default
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValidationError(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc
    return check_positive_int("REPRO_WORKERS", workers)


def _expand_grid(grids: Mapping[str, Iterable]) -> List[Dict[str, object]]:
    """The cross product of ``grids`` as parameter dicts, in grid order.

    Grid order is preserved: the *last* grid varies fastest, matching
    nested-loop intuition.  Empty grids are an error — a sweep over
    nothing is always a driver bug, and silently returning ``[]`` used
    to let it propagate into empty figures.
    """
    names = list(grids)
    if not names:
        raise ValidationError("sweep grid has no axes; pass at least one parameter")
    values = [list(grids[name]) for name in names]
    for name, vals in zip(names, values):
        if not vals:
            raise ValidationError(f"sweep grid axis {name!r} has no values")
    return [dict(zip(names, combo)) for combo in itertools.product(*values)]


def _measure_chunk(
    measure: Callable[..., object], tasks: List[Tuple[int, Dict[str, object]]]
) -> List[Tuple[int, object]]:
    """Worker-side body: evaluate one chunk of (index, params) records."""
    return [(index, measure(**params)) for index, params in tasks]


def _is_picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def run_sweep(
    measure: Callable[..., object],
    grids: Mapping[str, Iterable],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint: Union[None, str, os.PathLike] = None,
    profiler=None,
) -> List[SweepPoint]:
    """Evaluate ``measure(**point)`` over the cross product of ``grids``.

    Parameters
    ----------
    measure:
        The measurement function; called once per grid point with the
        point's parameters as keyword arguments.  Must be picklable
        (a module-level function or :func:`functools.partial` of one)
        for ``workers > 1``; otherwise the sweep silently runs serial.
    grids:
        Ordered mapping of parameter name -> values.  The last axis
        varies fastest; results always come back in grid order.
    workers:
        Process count.  ``1`` (default) runs in-process; ``N > 1``
        fans chunks out over a ``ProcessPoolExecutor``.
    chunk_size:
        Grid points per chunk.  Defaults to ~4 chunks per worker,
        which amortizes pickling without starving the pool.  A resumed
        checkpoint requires the same chunking as the original run (the
        journal fingerprint enforces it).
    progress:
        Called with each point's params, in grid order, before any
        point is measured.
    tracer:
        A wall-clock :class:`repro.obs.Tracer`: records one span per
        worker chunk (parallel; submit → result, as observed from the
        parent) or per point (in-process), so sweep latency opens in
        Perfetto next to everything else.
    checkpoint:
        Path of a write-ahead chunk journal.  Collected chunks are
        durably recorded (checksummed, fsynced) before the sweep moves
        on; re-running with the same arguments and checkpoint replays
        them, and the result is byte-identical to an uninterrupted run.
    profiler:
        A :class:`repro.obs.SamplingProfiler` running for the duration
        of the sweep (started here, stopped on the way out, even on
        failure).  With ``workers == 1`` it samples the measure calls
        themselves; parallel sweeps profile the driver — submission,
        pickling, merge — which is where the driver-side time goes.

    Returns
    -------
    list of :class:`SweepPoint`
        One record per grid point, in grid order, independent of
        ``workers``/``chunk_size``/``checkpoint``.
    """
    if profiler is not None and profiler.enabled:
        # Re-enter with the profiler running: start/stop bracket the
        # whole sweep, exceptions included.
        profiler.start()
        try:
            return run_sweep(
                measure,
                grids,
                workers=workers,
                chunk_size=chunk_size,
                progress=progress,
                tracer=tracer,
                checkpoint=checkpoint,
            )
        finally:
            profiler.stop()
    check_positive_int("workers", workers)
    if chunk_size is not None:
        check_positive_int("chunk_size", chunk_size)
    combos = _expand_grid(grids)
    if progress is not None:
        for params in combos:
            progress(params)

    # Chunking must be a pure function of (grid, workers, chunk_size) —
    # never of completion order — so a resumed run rebuilds the same chunks.
    tasks = list(enumerate(combos))
    size = chunk_size or max(1, -(-len(tasks) // (workers * 4)))
    chunks = [tasks[i : i + size] for i in range(0, len(tasks), size)]

    obs = tracer if tracer is not None and tracer.enabled else None
    results: List[object] = [None] * len(combos)
    journal = None
    if checkpoint is not None:
        journal = ChunkJournal(checkpoint, sweep_fingerprint(measure, combos, size))
        for chunk_results in journal.completed.values():
            for index, value in chunk_results:
                results[index] = value
        if journal.resumed_chunks:
            DURABLE_METRICS.inc("chunks_resumed", journal.resumed_chunks)
            DURABLE_METRICS.inc(
                "points_resumed", sum(len(r) for r in journal.completed.values())
            )
            if obs:
                obs.instant(
                    "checkpoint resume",
                    obs.track("sweep", "checkpoint"),
                    cat="durable",
                    args={"chunks": journal.resumed_chunks, "path": str(checkpoint)},
                )
    remaining = [
        (chunk_index, chunk)
        for chunk_index, chunk in enumerate(chunks)
        if journal is None or chunk_index not in journal
    ]

    def collect(chunk_index: int, chunk_results: List[Tuple[int, object]]) -> None:
        for index, value in chunk_results:
            results[index] = value
        if journal is not None:
            journal.append(chunk_index, chunk_results)
            DURABLE_METRICS.inc("chunks_journaled")

    try:
        if remaining and workers > 1 and _is_picklable(measure):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                submitted = obs.now() if obs else 0.0
                futures = [pool.submit(_measure_chunk, measure, chunk) for _, chunk in remaining]
                # Collect in submission order — completion order never
                # leaks into the result, so the merge is deterministic.
                for (chunk_index, chunk), future in zip(remaining, futures):
                    collect(chunk_index, future.result())
                    if obs:
                        obs.complete(
                            f"chunk {chunk_index}",
                            obs.track("sweep", f"chunk {chunk_index}"),
                            submitted,
                            cat="sweep",
                            args={"points": len(chunk)},
                        )
        else:
            track = obs.track("sweep", "serial") if obs else None
            for chunk_index, chunk in remaining:
                chunk_results = []
                for index, params in chunk:
                    if obs:
                        with obs.span("point", track, cat="sweep", args=dict(params)):
                            value = measure(**params)
                    else:
                        value = measure(**params)
                    chunk_results.append((index, value))
                collect(chunk_index, chunk_results)
    finally:
        if journal is not None:
            journal.close()

    return [
        SweepPoint(params=params, value=results[index]) for index, params in enumerate(combos)
    ]


def sweep(
    measure: Callable[..., object],
    grids: Mapping[str, Iterable],
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[SweepPoint]:
    """Serial :func:`run_sweep` — the original simple entry point."""
    return run_sweep(measure, grids, workers=1, progress=progress)


def sweep_table(
    points: Sequence[SweepPoint], value_name: str = "value"
) -> Tuple[List[str], List[List[object]]]:
    """(headers, rows) for rendering a sweep with ``render_table``."""
    if not points:
        raise ValueError("no sweep points to tabulate")
    headers = list(points[0].params) + [value_name]
    rows = [list(p.params.values()) + [p.value] for p in points]
    return headers, rows
