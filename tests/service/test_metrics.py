"""Counters, latency histograms, and the cache-wired snapshot."""

from __future__ import annotations

import threading

import pytest

from repro.core import clear_caches
from repro.service import LatencyHistogram, PlanRequest, ServiceMetrics, plan
from repro.service.metrics import Counter


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safe_under_contention(self):
        counter = Counter()

        def spin():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50_us"] is None and snap["mean_us"] is None

    def test_quantile_bounds_the_sample(self):
        hist = LatencyHistogram()
        for us in (100, 200, 300, 400, 1000):
            hist.record(us / 1e6)
        p50 = hist.quantile(0.5)
        # Log buckets: the estimate is an upper bound within 2x.
        assert 200 <= p50 <= 512
        assert hist.quantile(0.99) >= 1000
        assert hist.count == 5

    def test_snapshot_fields(self):
        hist = LatencyHistogram()
        hist.record(0.001)  # 1000 us
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["mean_us"] == pytest.approx(1000.0)
        assert snap["min_us"] == snap["max_us"] == pytest.approx(1000.0)

    def test_rejects_negative_and_bad_quantile(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_overflow_bucket_reports_max(self):
        hist = LatencyHistogram(bounds_us=(1.0, 2.0))
        hist.record(5.0)  # 5 s, far past the last bound
        assert hist.quantile(0.99) == pytest.approx(5e6)


class TestServiceMetrics:
    def test_batch_observation(self):
        metrics = ServiceMetrics()
        metrics.observe_batch(3)
        metrics.observe_batch(5)
        batch = metrics.snapshot()["batch"]
        assert batch["count"] == 2
        assert batch["mean_size"] == pytest.approx(4.0)
        assert batch["max_size"] == 5
        with pytest.raises(ValueError):
            metrics.observe_batch(0)

    def test_snapshot_is_wired_to_core_cache(self):
        clear_caches()
        plan(PlanRequest(n=20, m=3))
        plan(PlanRequest(n=20, m=3))  # second call hits the schedule memo
        cache = ServiceMetrics().snapshot()["cache"]
        assert "plan_schedule" in cache
        assert cache["plan_schedule"]["hits"] >= 1
        assert 0.0 <= cache["plan_schedule"]["hit_rate"] <= 1.0
        # The core tables the planner leans on are visible too.
        assert {"optimal_k", "steps_needed", "build_kbinomial_tree"} <= set(cache)

    def test_snapshot_counters_section(self):
        metrics = ServiceMetrics()
        metrics.requests.inc(7)
        metrics.shed.inc()
        counters = metrics.snapshot()["counters"]
        assert counters["requests"] == 7
        assert counters["shed"] == 1
        assert set(counters) == {
            "requests",
            "plans",
            "amends",
            "memo_hits",
            "planned",
            "singleflight_hits",
            "batches",
            "shed",
            "timeouts",
            "errors",
        }


class TestReset:
    def test_counter_reset(self):
        counter = Counter()
        counter.inc(5)
        counter.reset()
        assert counter.value == 0

    def test_histogram_reset_keeps_bounds(self):
        hist = LatencyHistogram(bounds_us=(1.0, 10.0, 100.0))
        hist.record(0.00005)
        hist.reset()
        assert hist.count == 0
        snap = hist.snapshot()
        assert snap["mean_us"] is None and snap["p99_us"] is None
        hist.record(0.00005)  # still usable after reset
        assert hist.count == 1

    def test_service_metrics_reset_zeroes_everything(self):
        metrics = ServiceMetrics()
        metrics.requests.inc(3)
        metrics.errors.inc()
        metrics.plan_latency.record(0.001)
        metrics.observe_batch(4)
        metrics.reset()
        snap = metrics.snapshot()
        assert all(v == 0 for v in snap["counters"].values())
        assert snap["plan_latency"]["count"] == 0
        assert snap["batch"] == {"count": 0, "mean_size": None, "max_size": 0}
