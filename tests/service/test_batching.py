"""PlanBatcher: single-flight dedupe, micro-batching, chunk fan-out."""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import PlanBatcher, PlanRequest, ServiceMetrics
from repro.service.batching import plan_chunk
from repro.service.planner import plan_compact_json

from .helpers import compact_result


class CountingExecutor(ThreadPoolExecutor):
    """Thread pool that records every submitted chunk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunks = []

    def submit(self, fn, *args, **kwargs):
        if args and fn is plan_chunk:
            self.chunks.append(args[0])
        return super().submit(fn, *args, **kwargs)


def run(coro):
    return asyncio.run(coro)


def oracle(request: PlanRequest) -> bytes:
    """The encoded result the batcher must hand back for ``request``."""
    return json.dumps(compact_result(request), separators=(",", ":")).encode()


class TestSingleFlight:
    def test_duplicates_collapse_to_one_computation(self):
        async def body():
            metrics = ServiceMetrics()
            batcher = PlanBatcher(max_delay=0.01, metrics=metrics)
            request = PlanRequest(n=48, m=6)
            results = await asyncio.gather(*[batcher.submit(request) for _ in range(50)])
            await batcher.close()
            return metrics, results

        metrics, results = run(body())
        assert metrics.planned.value == 1
        assert metrics.singleflight_hits.value == 49
        assert all(r is results[0] for r in results)  # one encode, shared
        assert results[0] == oracle(PlanRequest(n=48, m=6))

    def test_waiter_timeout_does_not_cancel_shared_flight(self):
        async def body():
            batcher = PlanBatcher(max_delay=0.05)
            request = PlanRequest(n=16, m=2)
            slow = asyncio.ensure_future(batcher.submit(request))
            await asyncio.sleep(0)  # let the key enter flight
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(batcher.submit(request), 0.001)
            result = await slow  # survivor still gets the answer
            await batcher.close()
            return result

        assert run(body()) == oracle(PlanRequest(n=16, m=2))


class TestBatching:
    def test_full_batch_flushes_without_waiting(self):
        async def body():
            metrics = ServiceMetrics()
            batcher = PlanBatcher(max_batch=4, max_delay=5.0, metrics=metrics)
            requests = [PlanRequest(n=n, m=1) for n in (4, 5, 6, 7)]
            start = time.perf_counter()
            await asyncio.gather(*[batcher.submit(r) for r in requests])
            elapsed = time.perf_counter() - start
            await batcher.close()
            return metrics, elapsed

        metrics, elapsed = run(body())
        assert elapsed < 1.0  # did not sit out the 5 s window
        assert metrics.batches.value == 1
        assert metrics.snapshot()["batch"]["max_size"] == 4

    def test_distinct_keys_fan_out_in_sweep_chunks(self):
        async def body():
            executor = CountingExecutor(max_workers=2)
            batcher = PlanBatcher(
                max_batch=6, max_delay=5.0, chunk_size=2, executor=executor
            )
            requests = [PlanRequest(n=n, m=2) for n in (4, 6, 8, 10, 12, 14)]
            results = await asyncio.gather(*[batcher.submit(r) for r in requests])
            await batcher.close()
            return executor.chunks, requests, results

        chunks, requests, results = run(body())
        assert [len(c) for c in chunks] == [2, 2, 2]
        assert [r for chunk in chunks for r in chunk] == requests
        for request, result in zip(requests, results):
            assert result == oracle(request)

    def test_results_follow_request_not_arrival_order(self):
        async def body():
            batcher = PlanBatcher(max_delay=0.005, workers=4)
            pairs = [(n, m) for n in (8, 16, 32, 64) for m in (1, 4, 16)]
            results = await asyncio.gather(
                *[batcher.submit(PlanRequest(n=n, m=m)) for n, m in pairs]
            )
            await batcher.close()
            return pairs, results

        pairs, results = run(body())
        for (n, m), result in zip(pairs, results):
            assert result == oracle(PlanRequest(n=n, m=m))


class TestFailureAndLifecycle:
    def test_plan_errors_reach_only_their_waiter(self, monkeypatch):
        real_plan_compact_json = plan_compact_json

        def exploding(request):
            if request.n == 13:
                raise RuntimeError("boom")
            return real_plan_compact_json(request)

        monkeypatch.setattr("repro.service.batching.plan_compact_json", exploding)

        async def body():
            batcher = PlanBatcher(max_delay=0.005)
            good = asyncio.ensure_future(batcher.submit(PlanRequest(n=12, m=1)))
            bad = asyncio.ensure_future(batcher.submit(PlanRequest(n=13, m=1)))
            with pytest.raises(RuntimeError, match="boom"):
                await bad
            result = await good
            await batcher.close()
            return result

        assert run(body()) == oracle(PlanRequest(n=12, m=1))

    def test_drain_flushes_immediately(self):
        async def body():
            batcher = PlanBatcher(max_delay=30.0)
            pending = asyncio.ensure_future(batcher.submit(PlanRequest(n=9, m=3)))
            await asyncio.sleep(0)
            start = time.perf_counter()
            await batcher.drain()
            elapsed = time.perf_counter() - start
            result = await pending
            await batcher.close()
            return elapsed, result

        elapsed, result = run(body())
        assert elapsed < 5.0  # did not wait out the 30 s window
        assert result == oracle(PlanRequest(n=9, m=3))

    def test_submit_after_close_raises(self):
        async def body():
            batcher = PlanBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(PlanRequest(n=4, m=1))

        run(body())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay": -0.1},
            {"workers": 0},
            {"chunk_size": 0},
        ],
    )
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlanBatcher(**kwargs)
