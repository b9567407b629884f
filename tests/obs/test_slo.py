"""SLO burn-rate alerting: specs, windows, cooldown, sweep replays."""

from __future__ import annotations

import json

import pytest

from repro.obs import BurnRateTracker, SLOSet, SLOSpec, default_slos
from repro.obs.slo import DEFAULT_BURN_THRESHOLD, FAST_WINDOW_S, SLOW_WINDOW_S


def spec(objective=0.99, **kwargs) -> SLOSpec:
    return SLOSpec(name="test_slo", objective=objective, **kwargs)


class TestSpec:
    def test_budget_is_one_minus_objective(self):
        assert spec(0.99).budget == pytest.approx(0.01)
        assert spec(0.95).budget == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_objective_must_be_a_proper_fraction(self, bad):
        with pytest.raises(ValueError):
            spec(bad)

    def test_default_slos_cover_the_observatory(self):
        slos = default_slos()
        names = [s.name for s in slos]
        assert names == [
            "plan_latency_p99",
            "request_errors",
            "session_slowdown",
            "delivery_coverage",
        ]
        by_name = {s.name: s for s in slos}
        assert by_name["plan_latency_p99"].bound == 50_000.0
        assert by_name["session_slowdown"].bound == 8.0
        for s in slos:
            assert s.description


class TestBurnRateTracker:
    def test_all_good_burns_nothing(self):
        tracker = BurnRateTracker(spec(), clock=lambda: 0.0)
        for i in range(50):
            tracker.record(True, t=float(i))
        assert tracker.burn_rate(FAST_WINDOW_S, t=50.0) == 0.0
        assert tracker.check(t=50.0) is None

    def test_total_failure_fires_both_windows(self):
        tracker = BurnRateTracker(spec(), clock=lambda: 0.0)
        for i in range(10):
            tracker.record(False, t=float(i))
        alert = tracker.check(t=10.0)
        assert alert is not None
        # 100% bad over a 1% budget: burn rate 100 in both windows.
        assert alert.fast_burn == pytest.approx(100.0)
        assert alert.slow_burn == pytest.approx(100.0)
        assert alert.threshold == DEFAULT_BURN_THRESHOLD

    def test_short_spike_does_not_page(self):
        # A long good history inside the slow window absorbs a fast
        # spike: the multi-window AND is exactly what stops the page.
        tracker = BurnRateTracker(spec(), clock=lambda: 0.0)
        for i in range(1000):
            tracker.record(True, t=float(i))
        for i in range(10):
            tracker.record(False, t=3500.0 + i * 0.1)
        now = 3501.0
        assert tracker.burn_rate(FAST_WINDOW_S, t=now) >= DEFAULT_BURN_THRESHOLD
        assert tracker.burn_rate(SLOW_WINDOW_S, t=now) < DEFAULT_BURN_THRESHOLD
        assert tracker.check(t=now) is None

    def test_weighted_events(self):
        tracker = BurnRateTracker(spec(0.5), clock=lambda: 0.0)
        tracker.record(True, weight=3.0, t=0.0)
        tracker.record(False, weight=1.0, t=1.0)
        # bad fraction 0.25 over a 0.5 budget.
        assert tracker.burn_rate(FAST_WINDOW_S, t=1.0) == pytest.approx(0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BurnRateTracker(spec()).record(True, weight=-1.0, t=0.0)

    def test_bad_window_pair_rejected(self):
        with pytest.raises(ValueError):
            BurnRateTracker(spec(), fast_window=0.0)
        with pytest.raises(ValueError):
            BurnRateTracker(spec(), fast_window=60.0, slow_window=30.0)

    def test_events_prune_past_the_slow_window(self):
        tracker = BurnRateTracker(spec(), clock=lambda: 0.0)
        tracker.record(False, t=0.0)
        tracker.record(True, t=SLOW_WINDOW_S + 100.0)
        assert len(tracker._events) == 1
        assert tracker.burn_rate(SLOW_WINDOW_S, t=SLOW_WINDOW_S + 100.0) == 0.0

    def test_snapshot_shape(self):
        tracker = BurnRateTracker(spec(), clock=lambda: 0.0)
        tracker.record(True, t=0.0)
        tracker.record(False, t=1.0)
        snap = tracker.snapshot(t=1.0)
        assert snap["total_good"] == 1.0
        assert snap["total_bad"] == 1.0
        assert snap["fast_burn"] == pytest.approx(50.0)
        assert snap["alerting"] is True
        json.dumps(snap)  # JSON-ready by contract


class TestSLOSet:
    def test_records_route_to_named_trackers(self):
        slos = SLOSet(clock=lambda: 0.0)
        assert set(slos.trackers) == {s.name for s in default_slos()}
        slos.record("request_errors", True, t=0.0)
        assert slos.trackers["request_errors"]._total_good == 1.0
        with pytest.raises(KeyError):
            slos.record("nonsense", True, t=0.0)

    def test_cooldown_one_heartbeat_per_fast_window(self):
        slos = SLOSet([spec()], clock=lambda: 0.0)
        for i in range(100):
            slos.record("test_slo", False, t=float(i))
        # 100 s of sustained burn < one fast window: exactly one alert.
        assert len(slos.alert_log) == 1
        slos.record("test_slo", False, t=FAST_WINDOW_S + 1.0)
        assert len(slos.alert_log) == 2

    def test_record_returns_the_fired_alert(self):
        slos = SLOSet([spec()], clock=lambda: 0.0)
        alert = slos.record("test_slo", False, t=0.0)
        assert alert is not None and alert.slo == "test_slo"
        assert slos.record("test_slo", False, t=1.0) is None  # cooling down

    def test_snapshot_is_sorted_and_counts_alerts(self):
        slos = SLOSet(clock=lambda: 0.0)
        slos.record("delivery_coverage", False, t=0.0)
        snap = slos.snapshot(t=0.0)
        assert list(snap["slos"]) == sorted(snap["slos"])
        assert snap["alerts"] == len(slos.alert_log) == 1
        assert snap["slos"]["delivery_coverage"]["alerting"] is True

    def test_alert_dicts_round_trip_as_json(self):
        slos = SLOSet([spec()], clock=lambda: 0.0)
        slos.record("test_slo", False, t=0.0)
        [payload] = json.loads(json.dumps(slos.alert_dicts()))
        assert payload["slo"] == "test_slo"
        assert payload["fast_burn"] == pytest.approx(100.0)


class TestSweepReplays:
    def test_chaos_replay_is_silent_on_clean_records(self):
        from repro.faults import CHAOS

        records = [
            {"complete_destinations": 15, "lost_destinations": 0}
            for _ in range(20)
        ]
        log = CHAOS.alert_log(records)
        assert log["alerts"] == []
        assert log["records"] == 20
        assert log["slo"]["slos"]["delivery_coverage"]["alerting"] is False

    def test_chaos_replay_fires_on_heavy_loss(self):
        from repro.faults import CHAOS

        records = [
            {"complete_destinations": 7, "lost_destinations": 8}
            for _ in range(5)
        ]
        log = CHAOS.alert_log(records)
        assert log["alerts"], "majority loss must fire the coverage SLO"
        assert log["alerts"][0]["slo"] == "delivery_coverage"

    def test_chaos_replay_is_deterministic(self):
        from repro.faults import CHAOS, chaos_point

        records = [
            chaos_point("baseline", 0, 15, 4),
            chaos_point("root_child", 0, 15, 4),
        ]
        first = json.dumps(CHAOS.alert_log(records), sort_keys=True)
        second = json.dumps(CHAOS.alert_log(records), sort_keys=True)
        assert first == second

    def test_real_root_child_fires_while_baseline_stays_silent(self):
        from repro.faults import CHAOS, chaos_point

        baseline = [chaos_point("baseline", 0, 15, 4)]
        assert CHAOS.alert_log(baseline)["alerts"] == []
        crash = baseline + [chaos_point("root_child", 0, 15, 4)]
        log = CHAOS.alert_log(crash)
        assert [a["slo"] for a in log["alerts"]] == ["delivery_coverage"]

    def test_campaign_without_an_slo_refuses_replay(self):
        from repro.membership import CHURN

        with pytest.raises(ValueError, match="feeds no SLO"):
            CHURN.alert_log([])

    def test_sessions_replay_uses_per_session_slowdowns(self):
        from repro.sessions import SESSIONS

        good = [{"slowdowns": [1.0, 2.0, 3.0]} for _ in range(10)]
        assert SESSIONS.alert_log(good)["alerts"] == []
        # Past the 8x bound for every session: the SLO must fire.
        bad = [{"slowdowns": [9.0, 10.0, 8.5]} for _ in range(10)]
        log = SESSIONS.alert_log(bad)
        assert log["alerts"] and log["alerts"][0]["slo"] == "session_slowdown"

    def test_sessions_replay_falls_back_to_max_slowdown(self):
        from repro.sessions import SESSIONS

        records = [{"completed": 6, "max_slowdown": 12.0} for _ in range(4)]
        log = SESSIONS.alert_log(records)
        assert log["alerts"]
        tracker = log["slo"]["slos"]["session_slowdown"]
        assert tracker["total_bad"] == 24.0
