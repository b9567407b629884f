"""Micro-batching and single-flight coalescing for plan requests.

The service's traffic is skewed: a production control plane sees the
same few ``(n, m, params)`` keys over and over (the same reason §4.3.1
can precompute the optimal-k table at all).  The server answers a key
already in the planner's compact memo in its read callback, so only
cold keys reach the batcher, which is where computing them is worth
coalescing.  :class:`PlanBatcher` does that twice:

* **single-flight** — while a key is being computed, every further
  request for it attaches to the in-flight future instead of enqueuing
  a duplicate computation (the classic singleflight/request-collapsing
  pattern).  This is also the churn-burst absorber: the server folds
  every ``amend`` delta into an equivalent :class:`PlanRequest`
  (:func:`repro.membership.amend.amended_request`), so a flash crowd
  of identical membership changes — N joiners hitting every replica at
  once — collapses onto one in-flight computation instead of a re-plan
  storm through the cluster router;
* **micro-batching** — distinct keys arriving within ``max_delay`` of
  each other (or until ``max_batch`` uniques accumulate) are flushed
  together and fanned over an executor in chunks, using the same
  ``~4 chunks per worker`` split as
  :func:`repro.analysis.sweep.run_sweep` — one executor round-trip
  amortizes over several plans.

The executor defaults to a private thread pool: a plan is dominated by
the memoized :mod:`repro.core.cache` tables, so warm traffic is far
cheaper than process fan-out would cost in pickling; inject a
``ProcessPoolExecutor`` for cold, CPU-bound grids (requests and
results are picklable by design).

Each computation's outcome is its answer's encoded ``"result"`` bytes,
:func:`~repro.service.planner.plan_compact_json` of the
:class:`~repro.service.planner.PlanRequest`, so every single-flight
waiter shares one bytes object and a computation is encoded exactly
once, in the executor.

All public methods must be called from the event loop thread; the
executor workers only run the pure encoders.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .metrics import ServiceMetrics
from .planner import PlanRequest, plan_compact_json

__all__ = ["PlanBatcher", "plan_chunk"]

#: A chunk outcome: the encoded result, or the exception the plan raised.
_Outcome = Union[bytes, Exception]


def plan_chunk(requests: Sequence[PlanRequest]) -> List[_Outcome]:
    """Executor-side body: encode each request's plan, capturing per-item errors.

    Module-level (like the sweep engine's ``_measure_chunk``) so it
    pickles into process pools; exceptions travel as values so one bad
    request cannot poison its chunk-mates.
    """
    outcomes: List[_Outcome] = []
    for request in requests:
        try:
            outcomes.append(plan_compact_json(request))
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            outcomes.append(exc)
    return outcomes


class PlanBatcher:
    """Coalesce concurrent plan requests into batched executor calls.

    Parameters
    ----------
    max_batch:
        Flush as soon as this many *unique* keys are pending.
    max_delay:
        Seconds to wait for more keys before flushing a non-full batch
        (the micro-batching window; 0 flushes on the next loop tick).
    workers:
        Executor parallelism; also sets the sweep-style chunk split
        (``ceil(pending / (workers * 4))`` per chunk).
    chunk_size:
        Override the chunk split with a fixed size.
    executor:
        Inject a custom executor (e.g. ``ProcessPoolExecutor``);
        by default a private ``ThreadPoolExecutor(workers)`` is created
        lazily and shut down by :meth:`close`.
    metrics:
        A :class:`~repro.service.metrics.ServiceMetrics` to record
        single-flight hits, batch sizes, and unique computations.
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        max_delay: float = 0.001,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        executor: Optional[Executor] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.workers = workers
        self.chunk_size = chunk_size
        self.metrics = metrics
        self._executor = executor
        self._owns_executor = executor is None
        self._inflight: Dict[PlanRequest, asyncio.Future] = {}
        self._pending: List[PlanRequest] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._chunk_tasks: "set[asyncio.Future]" = set()
        self._closed = False

    # -- public API ---------------------------------------------------------
    async def submit(self, request: PlanRequest) -> bytes:
        """The encoded answer to ``request``, sharing any in-flight
        computation of the key (see the module docstring)."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        future = self._inflight.get(request)
        if future is not None:
            if self.metrics is not None:
                self.metrics.singleflight_hits.inc()
            # shield: a cancelled waiter (per-request timeout) must not
            # cancel the shared computation other waiters depend on.
            return await asyncio.shield(future)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[request] = future
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self.max_delay, self._flush)
        return await asyncio.shield(future)

    @property
    def inflight(self) -> int:
        """Keys currently being computed or awaiting flush."""
        return len(self._inflight)

    async def drain(self) -> None:
        """Flush pending work and wait until no computation is pending.

        The wait cancels nothing: a caller that gives up on it (say,
        ``asyncio.wait_for`` timing out) leaves every shared computation
        running for its waiters.
        """
        self._flush()
        while True:
            pending = [
                future
                for future in (*self._inflight.values(), *self._chunk_tasks)
                if not future.done()
            ]
            if not pending:
                return
            await asyncio.wait(pending)

    async def close(self) -> None:
        """Release the owned executor without waiting for anything.

        Every waiter still pending fails with ``RuntimeError``, and an
        owned executor that is still running a plan shuts down without
        joining its thread (a running plan cannot be interrupted).  To
        let pending work finish, ``await`` :meth:`drain` first.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._pending.clear()
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(RuntimeError("the batcher closed before the plan finished"))
                future.exception()  # retrieved: its waiters may be gone
        self._inflight.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=not self._chunk_tasks, cancel_futures=True)
            self._executor = None

    # -- internals ----------------------------------------------------------
    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="plan-worker"
            )
        return self._executor

    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        if self.metrics is not None:
            self.metrics.observe_batch(len(batch))
            self.metrics.planned.inc(len(batch))
        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        # The sweep engine's split: ~4 chunks per worker amortizes the
        # executor round-trip without starving the pool.
        size = self.chunk_size or max(1, -(-len(batch) // (self.workers * 4)))
        for start in range(0, len(batch), size):
            chunk = tuple(batch[start : start + size])
            task = loop.run_in_executor(executor, plan_chunk, chunk)
            self._chunk_tasks.add(task)
            task.add_done_callback(lambda done, chunk=chunk: self._finish(chunk, done))

    def _finish(self, chunk: Tuple[PlanRequest, ...], done: asyncio.Future) -> None:
        self._chunk_tasks.discard(done)
        # Every waiter of the chunk is settled, whatever became of it.
        if done.cancelled():
            failure: Optional[BaseException] = RuntimeError("the plan computation was cancelled")
        else:
            failure = done.exception()  # the executor itself failed (e.g. shutdown)
        outcomes: Sequence[_Outcome] = (
            done.result() if failure is None else [failure] * len(chunk)
        )
        for request, outcome in zip(chunk, outcomes):
            future = self._inflight.pop(request, None)
            if future is None or future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
                # A timed-out waiter may be gone; mark the exception
                # retrieved so the loop doesn't log it as orphaned.
                future.exception()
            else:
                future.set_result(outcome)
