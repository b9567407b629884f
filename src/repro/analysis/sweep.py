"""Parameter sweeps: serial, parallel, cached, and crash-safe.

:func:`sweep` runs a measurement function over the cross product of
named parameter grids, yielding flat result records that render
directly through :func:`repro.analysis.tables.render_table` or load
into numpy for analysis.

:func:`run_sweep` is the full engine behind it: the same grid
semantics, plus

* **parallel execution** — ``workers=N`` fans grid points out over a
  ``concurrent.futures.ProcessPoolExecutor`` in ``chunk_size`` batches
  of picklable ``(index, params)`` task records and merges the results
  back **in grid order**, so a parallel sweep is byte-identical to a
  serial one (a regression test pins this);
* **serial fallback** — ``workers=1``, or a ``measure`` that cannot be
  pickled (lambdas, closures), runs in-process with no executor;
* **result store** — ``store=`` a path or :class:`SweepStore` consults
  an on-disk JSON record of previously computed points and only
  measures the missing ones, so re-running a benchmark driver is
  incremental;
* **checkpoint/resume** — ``checkpoint=`` a path journals every
  completed chunk through a write-ahead
  :class:`~repro.durable.journal.ChunkJournal`; a restarted sweep
  (SIGKILL, power loss, CI timeout) skips the journaled chunks and the
  deterministic grid-order merge makes the resumed run byte-identical
  to an uninterrupted one (``tests/durable/test_kill_resume.py`` pins
  this with a real SIGKILL);
* **worker watchdog** — ``chunk_timeout=`` seconds arms per-chunk
  deadlines: hung or OOM-killed workers are killed and retried up to
  ``chunk_retries`` attempts with seeded backoff, and chunks that
  exhaust the budget surface as
  :class:`~repro.durable.watchdog.ChunkFailure` records (raised as
  :class:`~repro.durable.errors.ChunkRetryError`, or recorded in the
  store manifest with ``on_chunk_failure="skip"``) instead of hanging
  the sweep.

With neither ``checkpoint`` nor ``chunk_timeout`` given, the engine
runs the exact pre-durability code path — the crash-safety machinery
costs nothing when it is off
(``benchmarks/bench_durable_overhead.py`` enforces both sides).

Worker processes keep their :mod:`repro.core.cache` memo tables across
the points of a sweep (the executor reuses processes), which is where
the warm-cache speedups of ``benchmarks/bench_sweep_engine.py`` come
from.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..durable.atomic import atomic_write_json, quarantine, safe_load_json
from ..durable.errors import (
    ChunkRetryError,
    StoreCorruptionError,
    ValidationError,
    check_positive_int,
    check_positive_number,
)
from ..durable.journal import ChunkJournal, sweep_fingerprint
from ..durable.metrics import DURABLE_METRICS
from ..durable.watchdog import ChunkFailure, run_chunks_watchdog
from ..obs.tracer import Tracer

__all__ = [
    "SweepPoint",
    "SweepStore",
    "run_sweep",
    "sweep",
    "sweep_table",
    "workers_from_env",
]

#: Schema version of the sweep-store JSON envelope.
STORE_VERSION = 1


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its measured value."""

    params: Dict[str, object]
    value: object

    def __getitem__(self, key: str) -> object:
        return self.params[key]


class SweepStore:
    """On-disk JSON store of measured sweep points.

    Keys are a canonical JSON serialization of each point's parameter
    dict, so any sweep whose grids overlap a stored one reuses the
    shared points regardless of grid shape or order.  Values must be
    JSON-serializable (numbers, strings, lists, dicts) — the store is
    for resumable benchmark grids, not arbitrary objects.

    The file is rewritten atomically on :meth:`flush` (temp + fsync +
    rename via :func:`repro.durable.atomic_write_json`) and stamped
    with a CRC — a reader can never observe a half-written store, and
    a store corrupted *after* writing fails its checksum at load.
    Truncated or tampered stores raise a typed
    :class:`~repro.durable.errors.StoreCorruptionError`; construct
    with ``on_corruption="quarantine"`` to instead move the bad file
    aside as ``<path>.corrupt`` and continue with an empty store (the
    sweep recomputes; nothing silently poisons later replays).

    Every flush stamps the file with a run manifest
    (:func:`repro.obs.run_manifest`: package version, git SHA,
    timestamps), so a stored grid records what produced it.  Readers
    ignore the manifest — only ``records`` is consulted.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        on_corruption: str = "raise",
    ) -> None:
        if on_corruption not in ("raise", "quarantine"):
            raise ValidationError(
                f"on_corruption must be 'raise' or 'quarantine', got {on_corruption!r}"
            )
        self.path = os.fspath(path)
        self.on_corruption = on_corruption
        #: Where a corrupt store was moved, when quarantine triggered.
        self.quarantined_to: Optional[str] = None
        #: Points served from disk / measured this run.
        self.hits = 0
        self.misses = 0
        self._records: Dict[str, object] = {}
        if os.path.exists(self.path):
            self._records = self._load()

    def _load(self) -> Dict[str, object]:
        try:
            payload = safe_load_json(self.path, expected_version=STORE_VERSION)
            records = payload.get("records", {})
            if not isinstance(records, dict):
                raise StoreCorruptionError(
                    f"sweep store {self.path!r} has a non-object 'records' "
                    "field; delete or quarantine the file to start fresh"
                )
            return records
        except StoreCorruptionError:
            if self.on_corruption != "quarantine":
                raise
            self.quarantined_to = quarantine(self.path)
            DURABLE_METRICS.inc("stores_quarantined")
            return {}

    @staticmethod
    def key_for(params: Mapping[str, object]) -> str:
        """Canonical, order-independent key for one point's params."""
        return json.dumps(params, sort_keys=True, default=repr)

    def get(self, params: Mapping[str, object]) -> Tuple[bool, object]:
        """(found, value) for ``params``; counts a hit or a miss."""
        key = self.key_for(params)
        if key in self._records:
            self.hits += 1
            return True, self._records[key]
        self.misses += 1
        return False, None

    def put(self, params: Mapping[str, object], value: object) -> None:
        try:
            json.dumps(value)
        except TypeError as exc:
            raise TypeError(
                f"SweepStore values must be JSON-serializable; point {params!r} "
                f"produced {type(value).__name__}"
            ) from exc
        self._records[self.key_for(params)] = value

    def flush(self, extra: Optional[dict] = None) -> None:
        """Atomically persist all records (plus a run manifest) to :attr:`path`.

        ``extra`` adds caller fields to the manifest (the sweep engine
        records checkpoint/resume stats and any chunk failures here).
        """
        from ..obs.manifest import run_manifest

        manifest_extra = {"points": len(self._records)}
        if extra:
            manifest_extra.update(extra)
        payload = {
            "version": STORE_VERSION,
            "manifest": run_manifest(extra=manifest_extra),
            "records": self._records,
        }
        atomic_write_json(self.path, payload)

    def __len__(self) -> int:
        return len(self._records)


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


def _run_durable(
    measure: Callable[..., object],
    combos: List[Dict[str, object]],
    pending: List[Tuple[int, Dict[str, object]]],
    results: List[object],
    *,
    workers: int,
    chunk_size: Optional[int],
    checkpoint: Union[None, str, os.PathLike],
    chunk_timeout: Optional[float],
    chunk_retries: int,
    retry_policy,
    obs,
) -> Tuple[Optional[ChunkJournal], List[ChunkFailure], set]:
    """The crash-safe execution path: journaled chunks, watchdog deadlines.

    Returns ``(journal, failures, failed_indices)``; every grid index
    in a successful chunk has its slot of ``results`` filled.
    """
    # Chunking must be a pure function of (pending, chunk_size) — never
    # of completion order — so a resumed run rebuilds the same chunks.
    size = chunk_size or max(1, -(-len(pending) // (workers * 4)))
    chunks = [pending[i : i + size] for i in range(0, len(pending), size)]

    journal = None
    if checkpoint is not None:
        fingerprint = sweep_fingerprint(
            measure, combos, [index for index, _ in pending], size
        )
        journal = ChunkJournal(checkpoint, fingerprint)
        for chunk_results in journal.completed.values():
            for index, value in chunk_results:
                results[index] = value
        if journal.resumed_chunks:
            DURABLE_METRICS.inc("chunks_resumed", journal.resumed_chunks)
            DURABLE_METRICS.inc(
                "points_resumed",
                sum(len(r) for r in journal.completed.values()),
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

    def chunk_done(chunk_index: int, chunk_results: List[Tuple[int, object]]) -> None:
        for index, value in chunk_results:
            results[index] = value
        if journal is not None:
            journal.append(chunk_index, chunk_results)
            DURABLE_METRICS.inc("chunks_journaled")

    failures: List[ChunkFailure] = []
    if remaining:
        if chunk_timeout is not None:
            if retry_policy is None:
                from ..service.client import RetryPolicy

                retry_policy = RetryPolicy(attempts=max(chunk_retries, 1))
            failures = run_chunks_watchdog(
                measure,
                remaining,
                workers=workers,
                chunk_timeout=chunk_timeout,
                chunk_retries=chunk_retries,
                retry_delays=retry_policy.delays,
                on_chunk_done=chunk_done,
            )
        elif workers > 1 and _is_picklable(measure):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                submitted = obs.now() if obs else 0.0
                futures = [
                    (chunk_index, chunk, pool.submit(_measure_chunk, measure, chunk))
                    for chunk_index, chunk in remaining
                ]
                for chunk_index, chunk, future in futures:
                    chunk_done(chunk_index, future.result())
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
                if obs:
                    with obs.span(
                        f"chunk {chunk_index}", track, cat="sweep",
                        args={"points": len(chunk)},
                    ):
                        chunk_done(chunk_index, _measure_chunk(measure, chunk))
                else:
                    chunk_done(chunk_index, _measure_chunk(measure, chunk))

    failed_indices = set()
    if failures:
        failed_chunks = {f.chunk_index for f in failures}
        failed_indices = {
            index
            for chunk_index, chunk in enumerate(chunks)
            if chunk_index in failed_chunks
            for index, _ in chunk
        }
    return journal, failures, failed_indices


def run_sweep(
    measure: Callable[..., object],
    grids: Mapping[str, Iterable],
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    store: Union[None, str, os.PathLike, SweepStore] = None,
    tracer: Optional[Tracer] = None,
    checkpoint: Union[None, str, os.PathLike] = None,
    chunk_timeout: Optional[float] = None,
    chunk_retries: int = 3,
    retry_policy=None,
    on_chunk_failure: str = "raise",
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
        Grid points per worker task.  Defaults to ~4 chunks per worker,
        which amortizes pickling without starving the pool.  A resumed
        checkpoint requires the same chunking as the original run (the
        journal fingerprint enforces it).
    progress:
        Called with each point's params in grid order before it is
        measured (at submission time when parallel).
    store:
        A path or :class:`SweepStore`: previously stored points are
        returned without measuring, newly measured points are persisted.
    tracer:
        A wall-clock :class:`repro.obs.Tracer`: records one span per
        worker chunk (parallel; submit → result, as observed from the
        parent) or per point (serial), so sweep latency opens in
        Perfetto next to everything else.
    checkpoint:
        Path of a write-ahead chunk journal.  Completed chunks are
        durably recorded (checksummed, fsynced) before the sweep moves
        on; re-running with the same arguments and checkpoint skips
        them, and the result is byte-identical to an uninterrupted run.
    chunk_timeout:
        Per-chunk deadline in seconds; arms the worker watchdog (each
        chunk runs in its own killable process).  ``None`` (default)
        leaves the watchdog off.
    chunk_retries:
        Total attempts per chunk under the watchdog before it is
        declared failed.
    retry_policy:
        A :class:`repro.service.client.RetryPolicy` spacing watchdog
        retries (default: seeded exponential backoff).
    on_chunk_failure:
        ``"raise"`` (default): chunks that exhaust their retries raise
        :class:`~repro.durable.errors.ChunkRetryError` *after* the
        journal and store have absorbed every completed chunk.
        ``"skip"``: failed points come back with ``value None`` and the
        failures are recorded in the store manifest.
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
        ``workers``/``chunk_size``/``store``/``checkpoint``.
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
                store=store,
                tracer=tracer,
                checkpoint=checkpoint,
                chunk_timeout=chunk_timeout,
                chunk_retries=chunk_retries,
                retry_policy=retry_policy,
                on_chunk_failure=on_chunk_failure,
            )
        finally:
            profiler.stop()
    check_positive_int("workers", workers)
    if chunk_size is not None:
        check_positive_int("chunk_size", chunk_size)
    if chunk_timeout is not None:
        check_positive_number("chunk_timeout", chunk_timeout)
    check_positive_int("chunk_retries", chunk_retries)
    if on_chunk_failure not in ("raise", "skip"):
        raise ValidationError(
            f"on_chunk_failure must be 'raise' or 'skip', got {on_chunk_failure!r}"
        )
    combos = _expand_grid(grids)
    if store is not None and not isinstance(store, SweepStore):
        store = SweepStore(store)

    results: List[object] = [None] * len(combos)
    pending: List[Tuple[int, Dict[str, object]]] = []
    for index, params in enumerate(combos):
        if progress is not None:
            progress(params)
        if store is not None:
            found, value = store.get(params)
            if found:
                results[index] = value
                continue
        pending.append((index, params))

    obs = tracer if tracer is not None and tracer.enabled else None
    journal = None
    failures: List[ChunkFailure] = []
    failed_indices: set = set()
    if pending:
        if checkpoint is not None or chunk_timeout is not None:
            journal, failures, failed_indices = _run_durable(
                measure,
                combos,
                pending,
                results,
                workers=workers,
                chunk_size=chunk_size,
                checkpoint=checkpoint,
                chunk_timeout=chunk_timeout,
                chunk_retries=chunk_retries,
                retry_policy=retry_policy,
                obs=obs,
            )
        elif workers > 1 and _is_picklable(measure):
            size = chunk_size or max(1, -(-len(pending) // (workers * 4)))
            chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                submitted = obs.now() if obs else 0.0
                futures = [pool.submit(_measure_chunk, measure, chunk) for chunk in chunks]
                # Collect in submission order — completion order never
                # leaks into the result, so the merge is deterministic.
                for chunk_index, future in enumerate(futures):
                    for index, value in future.result():
                        results[index] = value
                    if obs:
                        obs.complete(
                            f"chunk {chunk_index}",
                            obs.track("sweep", f"chunk {chunk_index}"),
                            submitted,
                            cat="sweep",
                            args={"points": len(chunks[chunk_index])},
                        )
        else:
            if obs:
                track = obs.track("sweep", "serial")
            for index, params in pending:
                if obs:
                    with obs.span("point", track, cat="sweep", args=dict(params)):
                        results[index] = measure(**params)
                else:
                    results[index] = measure(**params)
        if journal is not None:
            journal.close()
        if store is not None:
            for index, params in pending:
                if index in failed_indices:
                    continue
                store.put(params, results[index])
            extra: Dict[str, object] = {}
            if journal is not None:
                extra["checkpoint"] = {
                    "path": os.fspath(checkpoint),
                    "resumed_chunks": journal.resumed_chunks,
                    "journaled_chunks": journal.appended_chunks,
                }
            if failures:
                extra["chunk_failures"] = [f.to_dict() for f in failures]
            store.flush(extra=extra or None)
        if failures and on_chunk_failure == "raise":
            raise ChunkRetryError(failures)

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
