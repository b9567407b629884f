"""Single-flight executor hops for cold multi-port plans.

The server answers a plan already in the planner's compact memo on its
read callback, and computes a cold one-port plan right there too, since
it builds no tree (the rule sits beside
:data:`~repro.service.planner.MAX_PLAN_WORK`).  Only a cold multi-port
plan, which builds its tree and exact step schedule, reaches
:class:`PlanBatcher`, which does two things with it:

* **one executor hop** — the plan is computed on a private thread pool,
  ``plan_chunk((request,))``, so a computation of up to half a second
  at the work bound does not hold the event loop;
* **single-flight** — while a key is being computed, every further
  request for it attaches to the in-flight future instead of starting
  a duplicate computation (the classic singleflight/request-collapsing
  pattern).  The server folds every ``amend`` delta into an equivalent
  :class:`PlanRequest` (:func:`repro.membership.amend.amended_request`),
  so a flash crowd of identical membership changes collapses onto one
  computation too.

Each computation's outcome is its answer's encoded ``"result"`` bytes,
:func:`~repro.service.planner.plan_compact_json` of the
:class:`~repro.service.planner.PlanRequest`, so every single-flight
waiter shares one bytes object and a computation is encoded exactly
once, in the executor.

All public methods must be called from the event loop thread; the
executor workers only run the pure encoder.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

from .metrics import ServiceMetrics
from .planner import PlanRequest, plan_compact_json

__all__ = ["PlanBatcher", "plan_chunk"]

#: A hop's outcome: the encoded result, or the exception the plan raised.
_Outcome = Union[bytes, Exception]


def plan_chunk(requests: Sequence[PlanRequest]) -> List[_Outcome]:
    """Executor-side body: encode each request's plan, capturing per-item errors.

    The batcher passes one request per hop.  An exception travels as a
    value, so it reaches only the waiters of its own key.
    """
    outcomes: List[_Outcome] = []
    for request in requests:
        try:
            outcomes.append(plan_compact_json(request))
        except Exception as exc:  # noqa: BLE001 - relayed to the caller
            outcomes.append(exc)
    return outcomes


class PlanBatcher:
    """Compute cold plans in an executor, one hop per in-flight key.

    The class batches nothing any more and keeps its name because the
    end-to-end benchmark's layer probes (``benchmarks/e2e/layers.py``)
    patch :meth:`submit` and read ``_inflight``.

    Parameters
    ----------
    workers:
        Threads of the private executor, created on the first hop and
        shut down by :meth:`close`.
    metrics:
        A :class:`~repro.service.metrics.ServiceMetrics` to count
        computations (``planned``), executor hops (``batches``) and
        single-flight hits.
    """

    def __init__(self, *, workers: int = 1, metrics: Optional[ServiceMetrics] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.metrics = metrics
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[PlanRequest, asyncio.Future] = {}
        self._closed = False

    async def submit(self, request: PlanRequest) -> bytes:
        """The encoded answer to ``request``, sharing any in-flight
        computation of the key (see the module docstring)."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        future = self._inflight.get(request)
        if future is not None:
            if self.metrics is not None:
                self.metrics.singleflight_hits.inc()
        else:
            if self.metrics is not None:
                self.metrics.planned.inc()
                self.metrics.batches.inc()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="plan-worker"
                )
            loop = asyncio.get_running_loop()
            future = self._inflight[request] = loop.create_future()
            hop = loop.run_in_executor(self._executor, plan_chunk, (request,))
            hop.add_done_callback(lambda done: self._finish(request, done))
        # shield: a cancelled waiter (per-request timeout) must not
        # cancel the shared computation other waiters depend on.
        return await asyncio.shield(future)

    async def drain(self) -> None:
        """Wait until no computation is in flight.

        The wait cancels nothing: a caller that gives up on it (say,
        ``asyncio.wait_for`` timing out) leaves every shared computation
        running for its waiters.
        """
        while self._inflight:
            await asyncio.wait(tuple(self._inflight.values()))

    async def close(self) -> None:
        """Release the executor without waiting for anything.

        Every waiter still pending fails with ``RuntimeError``, and an
        executor that is still running a plan shuts down without
        joining its thread (a running plan cannot be interrupted).  To
        let pending work finish, ``await`` :meth:`drain` first.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        busy = bool(self._inflight)
        for future in self._inflight.values():
            future.set_exception(RuntimeError("the batcher closed before the plan finished"))
            future.exception()  # retrieved: its waiters may be gone
        self._inflight.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=not busy, cancel_futures=True)
            self._executor = None

    def _finish(self, request: PlanRequest, hop: asyncio.Future) -> None:
        """Settle every waiter of ``request``, whatever became of its hop."""
        if hop.cancelled():
            outcome: object = RuntimeError("the plan computation was cancelled")
        else:
            # An executor failure (e.g. shutdown), else the plan's own
            # outcome; read even when nobody waits, so none goes unretrieved.
            outcome = hop.exception() or hop.result()[0]
        future = self._inflight.pop(request, None)
        if future is None:  # the batcher closed first
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
            # A timed-out waiter may be gone; mark the exception
            # retrieved so the loop doesn't log it as orphaned.
            future.exception()
        else:
            future.set_result(outcome)
