"""PlanBatcher: single-flight dedupe, one executor hop per key."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.service import PlanBatcher, PlanRequest, ServiceMetrics, batching
from repro.service.planner import plan_compact_json

from .helpers import compact_result


def run(coro):
    return asyncio.run(coro)


def oracle(request: PlanRequest) -> bytes:
    """The encoded result the batcher must hand back for ``request``."""
    return json.dumps(compact_result(request), separators=(",", ":")).encode()


class TestSingleFlight:
    def test_duplicates_collapse_to_one_computation(self):
        async def body():
            metrics = ServiceMetrics()
            batcher = PlanBatcher(metrics=metrics)
            request = PlanRequest(n=48, m=6)
            results = await asyncio.gather(*[batcher.submit(request) for _ in range(50)])
            await batcher.close()
            return metrics, results

        metrics, results = run(body())
        assert metrics.planned.value == 1
        assert metrics.singleflight_hits.value == 49
        assert all(r is results[0] for r in results)  # one encode, shared
        assert results[0] == oracle(PlanRequest(n=48, m=6))

    def test_waiter_timeout_does_not_cancel_shared_flight(self, plan_gate):
        async def body():
            batcher = PlanBatcher()
            request = PlanRequest(n=16, m=2)
            slow = asyncio.ensure_future(batcher.submit(request))
            await plan_gate.entered()  # the key is in flight, held in the executor
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(batcher.submit(request), 0.001)
            plan_gate.open()
            result = await slow  # survivor still gets the answer
            await batcher.close()
            return result

        assert run(body()) == oracle(PlanRequest(n=16, m=2))


class TestBatching:
    def test_each_key_in_flight_is_one_executor_hop(self, monkeypatch):
        """Distinct keys submitted together each make their own hop of
        one request, at once: there is no window to gather them in, and
        a duplicate rides its key's hop."""
        hops = []
        plan_chunk = batching.plan_chunk

        def recorded(requests):
            hops.append(tuple(requests))
            return plan_chunk(requests)

        monkeypatch.setattr(batching, "plan_chunk", recorded)

        async def body():
            metrics = ServiceMetrics()
            batcher = PlanBatcher(workers=2, metrics=metrics)
            requests = [PlanRequest(n=n, m=2) for n in (4, 6, 8, 10, 12, 14)]
            results = await asyncio.gather(*[batcher.submit(r) for r in requests + requests[:2]])
            await batcher.close()
            return metrics, requests, results

        metrics, requests, results = run(body())
        assert sorted(hops, key=lambda hop: hop[0].n) == [(request,) for request in requests]
        assert metrics.batches.value == metrics.planned.value == 6
        assert metrics.singleflight_hits.value == 2
        for request, result in zip(requests + requests[:2], results):
            assert result == oracle(request)

    def test_results_follow_request_not_arrival_order(self):
        async def body():
            batcher = PlanBatcher(workers=4)
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
            batcher = PlanBatcher()
            good = asyncio.ensure_future(batcher.submit(PlanRequest(n=12, m=1)))
            bad = asyncio.ensure_future(batcher.submit(PlanRequest(n=13, m=1)))
            with pytest.raises(RuntimeError, match="boom"):
                await bad
            result = await good
            await batcher.close()
            return result

        assert run(body()) == oracle(PlanRequest(n=12, m=1))

    def test_drain_flushes_immediately(self, plan_gate):
        """``drain`` waits for the computation in flight, and returns as
        soon as it is done."""

        async def body():
            batcher = PlanBatcher()
            pending = asyncio.ensure_future(batcher.submit(PlanRequest(n=9, m=3)))
            await plan_gate.entered()
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.05)
            held = not draining.done()
            start = time.perf_counter()
            plan_gate.open()
            await draining
            elapsed = time.perf_counter() - start
            result = await pending
            await batcher.close()
            return held, elapsed, result

        held, elapsed, result = run(body())
        assert held  # drain waited for the held computation
        assert elapsed < 5.0  # and returned once it was done
        assert result == oracle(PlanRequest(n=9, m=3))

    def test_submit_after_close_raises(self):
        async def body():
            batcher = PlanBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(PlanRequest(n=4, m=1))

        run(body())

    # Every worker count below one is refused: negative, fractional, zero.
    @pytest.mark.parametrize("kwargs", [{"workers": -1}, {"workers": 0.5}, {"workers": 0}])
    def test_bad_configuration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlanBatcher(**kwargs)
