"""Service observability: counters, latency histograms, cache hit rates.

Deliberately dependency-free (no prometheus client in the image): a
:class:`Counter` is a locked integer, a :class:`LatencyHistogram` is a
fixed set of log-spaced buckets with O(1) recording and deterministic
p50/p95/p99 estimates (quantiles resolve to a bucket's upper bound, so
snapshots never depend on sample order), and :class:`ServiceMetrics`
bundles the service's standard set and joins in the plan-cache counters
from :func:`repro.core.cache.cache_stats` — the single-flight and memo
layers stay observable through one ``stats`` request.

All types are thread-safe: the server updates them on the event loop
while benchmarks may read snapshots from other threads.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import GLOBAL_METRICS, cache_snapshot

__all__ = ["Counter", "LatencyHistogram", "ServiceMetrics"]


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative — counters never go down)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def reset(self) -> None:
        """Back to zero (test isolation; production counters never reset)."""
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self._value})"


def _default_bounds_us() -> Tuple[float, ...]:
    # 1 µs .. ~67 s in powers of two: 27 buckets, plus an overflow.
    return tuple(float(1 << i) for i in range(27))


class LatencyHistogram:
    """Log-bucketed latency histogram with quantile snapshots.

    ``record`` takes seconds (what ``time.perf_counter`` differences
    give); all reported values are microseconds, matching the repo's
    unit convention.  A quantile reports the upper bound of the bucket
    containing it — a ≤2× overestimate by construction, stable and
    merge-friendly, which is the standard monitoring trade-off.
    """

    def __init__(self, bounds_us: Optional[Tuple[float, ...]] = None) -> None:
        self._bounds = tuple(bounds_us) if bounds_us is not None else _default_bounds_us()
        if list(self._bounds) != sorted(set(self._bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * (len(self._bounds) + 1)  # + overflow
        self._count = 0
        self._sum_us = 0.0
        self._min_us: Optional[float] = None
        self._max_us: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Record one observation, given in seconds."""
        if seconds < 0:
            raise ValueError(f"latency cannot be negative, got {seconds}")
        us = seconds * 1e6
        index = bisect_left(self._bounds, us)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_us += us
            self._min_us = us if self._min_us is None else min(self._min_us, us)
            self._max_us = us if self._max_us is None else max(self._max_us, us)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self._count

    @property
    def sum_us(self) -> float:
        """Sum of all recorded observations, in µs."""
        return self._sum_us

    def buckets(self) -> List[Tuple[Optional[float], int]]:
        """Cumulative ``(upper_bound_us, count)`` pairs, Prometheus-style.

        One pair per configured bound plus a final ``(None, total)``
        overflow pair (``le="+Inf"`` in the exposition format).  Counts
        are cumulative and non-decreasing — exactly what a histogram
        scrape must publish.
        """
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[Optional[float], int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            out.append((bound, running))
        out.append((None, running + counts[-1]))
        return out

    def reset(self) -> None:
        """Drop every observation (bounds are kept)."""
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum_us = 0.0
            self._min_us = None
            self._max_us = None

    def quantile(self, q: float) -> Optional[float]:
        """Upper bound (µs) of the bucket holding quantile ``q`` ∈ [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            target = q * self._count
            seen = 0
            for index, count in enumerate(self._counts):
                seen += count
                if seen >= target and count:
                    if index < len(self._bounds):
                        return self._bounds[index]
                    return self._max_us  # overflow bucket: best bound we have
            return self._max_us

    def snapshot(self) -> dict:
        """count / sum / mean / min / max / p50 / p95 / p99 / buckets, in µs.

        The ``buckets`` entry is the cumulative Prometheus view from
        :meth:`buckets`, serialized as ``[bound_or_None, count]`` pairs
        so the exposition layer can publish ``_bucket{le=...}`` series
        without reaching back into the histogram.
        """
        with self._lock:
            count, total = self._count, self._sum_us
            low, high = self._min_us, self._max_us
        return {
            "count": count,
            "sum_us": total,
            "mean_us": (total / count) if count else None,
            "min_us": low,
            "max_us": high,
            "p50_us": self.quantile(0.50),
            "p95_us": self.quantile(0.95),
            "p99_us": self.quantile(0.99),
            "buckets": [[bound, n] for bound, n in self.buckets()],
        }


class ServiceMetrics:
    """The plan service's counter/histogram bundle.

    Counters
    --------
    ``requests`` — lines parsed into a request of any type;
    ``plans`` — plan requests admitted; ``amends`` — membership-delta
    requests folded into plan requests (so ``amends`` minus the extra
    ``singleflight_hits`` they caused is what churn actually cost);
    ``memo_hits`` — admitted plans answered on the connection's read
    loop from the wire memo, without the batcher; ``planned`` — keys
    the batcher sent to its executor, one per key per flush (a key that
    turned warm while it waited still counts); ``singleflight_hits`` —
    requests attached to a computation already in the batcher;
    ``batches`` — executor flushes; ``shed`` — requests refused with
    ``overloaded``; ``timeouts`` — per-request deadline expiries;
    ``errors`` — every error response sent (including shed and
    timeouts).

    Every admitted plan ends in exactly one of the three ways, so
    ``plans == memo_hits + planned + singleflight_hits`` once the
    batcher has flushed.

    Each instance registers its :meth:`snapshot` with
    :data:`repro.obs.GLOBAL_METRICS` under ``"service"`` (last writer
    wins), so the unified registry always reflects the live service.
    """

    def __init__(self) -> None:
        self.requests = Counter()
        self.plans = Counter()
        self.amends = Counter()
        self.memo_hits = Counter()
        self.planned = Counter()
        self.singleflight_hits = Counter()
        self.batches = Counter()
        self.shed = Counter()
        self.timeouts = Counter()
        self.errors = Counter()
        #: Server-side latency of successful plan requests.
        self.plan_latency = LatencyHistogram()
        self._batch_lock = threading.Lock()
        self._batch_count = 0
        self._batch_requests = 0
        self._batch_max = 0
        GLOBAL_METRICS.register("service", self.snapshot)

    def reset(self) -> None:
        """Zero every counter, histogram, and batch statistic."""
        for counter in (
            self.requests,
            self.plans,
            self.amends,
            self.memo_hits,
            self.planned,
            self.singleflight_hits,
            self.batches,
            self.shed,
            self.timeouts,
            self.errors,
        ):
            counter.reset()
        self.plan_latency.reset()
        with self._batch_lock:
            self._batch_count = 0
            self._batch_requests = 0
            self._batch_max = 0

    def observe_batch(self, size: int) -> None:
        """Record one flushed batch of ``size`` unique requests."""
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size}")
        self.batches.inc()
        with self._batch_lock:
            self._batch_count += 1
            self._batch_requests += size
            self._batch_max = max(self._batch_max, size)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serializable view of everything, cache layer included."""
        with self._batch_lock:
            batch = {
                "count": self._batch_count,
                "mean_size": (self._batch_requests / self._batch_count)
                if self._batch_count
                else None,
                "max_size": self._batch_max,
            }
        return {
            "counters": {
                "requests": self.requests.value,
                "plans": self.plans.value,
                "amends": self.amends.value,
                "memo_hits": self.memo_hits.value,
                "planned": self.planned.value,
                "singleflight_hits": self.singleflight_hits.value,
                "batches": self.batches.value,
                "shed": self.shed.value,
                "timeouts": self.timeouts.value,
                "errors": self.errors.value,
            },
            "plan_latency": self.plan_latency.snapshot(),
            "batch": batch,
            "cache": cache_snapshot(),
        }
