"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` states an objective — "99% of plan requests under
the latency bound", "99% of destinations covered under faults" — and a
:class:`BurnRateTracker` turns a stream of good/bad events into the
standard SRE alerting signal: the *burn rate* is the observed bad
fraction divided by the error budget (``1 - objective``), so burn 1.0
spends the budget exactly over the SLO period and burn 14.4 spends a
30-day budget in ~2 days.  An alert fires only when **both** a fast
and a slow sliding window exceed the threshold — the fast window makes
detection quick, the slow window stops a single spike from paging.

Everything takes explicit timestamps (with an injectable clock as the
default), so the same trackers run against wall time in a live
``PlanServer`` and against *replayed, deterministic* timelines when
the chaos and sessions campaigns convert their records into alert logs:
``CHAOS.alert_log`` feeds per-destination delivery outcomes through
the coverage SLO, which stays silent on the ``baseline`` scenario and
fires on ``root_child`` — the acceptance check for this module.

:func:`default_slos` bundles the four objectives named in the issue:
p99 plan latency, error/shed rate, session slowdown, and delivery
coverage under faults.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BurnRateTracker",
    "SLOAlert",
    "SLOSet",
    "SLOSpec",
    "default_slos",
]

#: The classic fast-burn page threshold: at this rate a 30-day budget
#: is gone in ~2 days (SRE workbook, multiwindow multi-burn-rate).
DEFAULT_BURN_THRESHOLD = 14.4

#: Fast/slow window pair in seconds (5 minutes / 1 hour).
FAST_WINDOW_S = 300.0
SLOW_WINDOW_S = 3600.0


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective.

    ``objective`` is the target good fraction (0.99 → a 1% error
    budget).  ``bound`` is the spec's threshold on the underlying
    measurement (a latency in µs, a slowdown factor) — informational
    here; the caller classifies each event against it.
    """

    name: str
    objective: float
    description: str = ""
    bound: Optional[float] = None
    unit: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective} for {self.name!r}"
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class SLOAlert:
    """A burn-rate alert: both windows over threshold at time ``t``."""

    slo: str
    t: float
    fast_burn: float
    slow_burn: float
    threshold: float
    objective: float

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "t": self.t,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "threshold": self.threshold,
            "objective": self.objective,
        }


class BurnRateTracker:
    """Sliding-window good/bad accounting for one SLO.

    Events are ``(t, good_weight, bad_weight)`` triples kept for the
    slow window's span; both windows read from the same deque.  Not
    thread-safe on its own — the server records from its event loop,
    replays are single-threaded.
    """

    def __init__(
        self,
        spec: SLOSpec,
        *,
        fast_window: float = FAST_WINDOW_S,
        slow_window: float = SLOW_WINDOW_S,
        threshold: float = DEFAULT_BURN_THRESHOLD,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if fast_window <= 0 or slow_window < fast_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got {fast_window}/{slow_window}"
            )
        self.spec = spec
        self.fast_window = float(fast_window)
        self.slow_window = float(slow_window)
        self.threshold = float(threshold)
        self._clock = clock or time.monotonic
        self._events: Deque[Tuple[float, float, float]] = deque()
        self._total_good = 0.0
        self._total_bad = 0.0

    def record(
        self,
        good: bool,
        *,
        weight: float = 1.0,
        t: Optional[float] = None,
    ) -> None:
        """Record ``weight`` units of one outcome at time ``t``."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        if t is None:
            t = self._clock()
        if good:
            self._total_good += weight
            self._events.append((t, weight, 0.0))
        else:
            self._total_bad += weight
            self._events.append((t, 0.0, weight))
        self._prune(t)

    def _prune(self, now: float) -> None:
        horizon = now - self.slow_window
        events = self._events
        while events and events[0][0] < horizon:
            events.popleft()

    def _window_rates(self, window: float, now: float) -> Tuple[float, float]:
        horizon = now - window
        good = bad = 0.0
        for t, g, b in self._events:
            if t >= horizon:
                good += g
                bad += b
        total = good + bad
        return (bad / total if total else 0.0), total

    def burn_rate(self, window: float, *, t: Optional[float] = None) -> float:
        """Bad fraction over ``window`` seconds, divided by the budget."""
        now = self._clock() if t is None else t
        bad_fraction, _ = self._window_rates(window, now)
        return bad_fraction / self.spec.budget

    def check(self, *, t: Optional[float] = None) -> Optional[SLOAlert]:
        """The multi-window test: an alert iff both windows burn hot."""
        now = self._clock() if t is None else t
        fast = self.burn_rate(self.fast_window, t=now)
        if fast < self.threshold:
            return None
        slow = self.burn_rate(self.slow_window, t=now)
        if slow < self.threshold:
            return None
        return SLOAlert(
            slo=self.spec.name,
            t=now,
            fast_burn=fast,
            slow_burn=slow,
            threshold=self.threshold,
            objective=self.spec.objective,
        )

    def snapshot(self, *, t: Optional[float] = None) -> dict:
        """Current totals and both window burn rates, JSON-ready."""
        now = self._clock() if t is None else t
        fast_frac, fast_n = self._window_rates(self.fast_window, now)
        slow_frac, slow_n = self._window_rates(self.slow_window, now)
        return {
            "objective": self.spec.objective,
            "bound": self.spec.bound,
            "unit": self.spec.unit,
            "total_good": self._total_good,
            "total_bad": self._total_bad,
            "fast_burn": fast_frac / self.spec.budget,
            "slow_burn": slow_frac / self.spec.budget,
            "fast_events": fast_n,
            "slow_events": slow_n,
            "threshold": self.threshold,
            "alerting": self.check(t=now) is not None,
        }


def default_slos() -> Tuple[SLOSpec, ...]:
    """The observatory's four stock objectives."""
    return (
        SLOSpec(
            name="plan_latency_p99",
            objective=0.99,
            bound=50_000.0,
            unit="us",
            description="99% of plan requests complete within 50 ms",
        ),
        SLOSpec(
            name="request_errors",
            objective=0.99,
            description="99% of requests succeed (errors, shed, timeouts are bad)",
        ),
        SLOSpec(
            name="session_slowdown",
            objective=0.95,
            bound=8.0,
            unit="x",
            description="95% of sessions finish within 8x their isolated latency",
        ),
        SLOSpec(
            name="delivery_coverage",
            objective=0.99,
            description="99% of destinations receive the full message under faults",
        ),
    )


class SLOSet:
    """A bundle of trackers plus the replayable alert log.

    ``record(name, good, ...)`` feeds one tracker and immediately runs
    the multi-window check; fired alerts append to :attr:`alert_log`
    with a per-SLO cooldown of one fast window so a sustained burn
    logs a heartbeat, not one line per event.
    """

    def __init__(
        self,
        specs: Optional[Sequence[SLOSpec]] = None,
        *,
        fast_window: float = FAST_WINDOW_S,
        slow_window: float = SLOW_WINDOW_S,
        threshold: float = DEFAULT_BURN_THRESHOLD,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.trackers: Dict[str, BurnRateTracker] = {}
        self.alert_log: List[SLOAlert] = []
        self._last_alert_t: Dict[str, float] = {}
        self._fast_window = fast_window
        for spec in specs if specs is not None else default_slos():
            self.trackers[spec.name] = BurnRateTracker(
                spec,
                fast_window=fast_window,
                slow_window=slow_window,
                threshold=threshold,
                clock=clock,
            )

    def record(
        self,
        name: str,
        good: bool,
        *,
        weight: float = 1.0,
        t: Optional[float] = None,
    ) -> Optional[SLOAlert]:
        """Feed one outcome; returns the alert if this event fired one."""
        tracker = self.trackers[name]
        tracker.record(good, weight=weight, t=t)
        alert = tracker.check(t=t)
        if alert is None:
            return None
        last = self._last_alert_t.get(name)
        if last is not None and alert.t - last < self._fast_window:
            return None
        self._last_alert_t[name] = alert.t
        self.alert_log.append(alert)
        return alert

    def snapshot(self, *, t: Optional[float] = None) -> dict:
        """Per-SLO burn-rate snapshots plus the alert count, JSON-ready."""
        return {
            "slos": {
                name: tracker.snapshot(t=t)
                for name, tracker in sorted(self.trackers.items())
            },
            "alerts": len(self.alert_log),
        }

    def alert_dicts(self) -> List[dict]:
        """The alert log as plain dicts (for JSON artifacts)."""
        return [alert.to_dict() for alert in self.alert_log]
