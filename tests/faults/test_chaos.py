"""Chaos campaign: point purity, smoke contract, survival table, CLI.

Worker-count determinism, checkpoint resume and the record file are
pinned for every campaign in ``tests/analysis/test_campaign.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import records_json
from repro.cli import main
from repro.faults import CHAOS
from repro.faults.chaos import SCENARIOS, chaos_point


class TestDeterminism:
    def test_point_is_a_pure_function_of_its_arguments(self):
        a = chaos_point("root_child", seed=0, dests=15, m=4)
        b = chaos_point("root_child", seed=0, dests=15, m=4)
        assert a == b

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            chaos_point("meteor", seed=0, dests=15, m=4)


class TestSmoke:
    @pytest.fixture(scope="class")
    def records(self):
        return CHAOS.smoke()

    def test_covers_every_scenario(self, records):
        assert [r["scenario"] for r in records] == list(SCENARIOS)

    def test_baseline_row_is_clean(self, records):
        base = next(r for r in records if r["scenario"] == "baseline")
        assert base["coverage"] == 1.0
        assert base["delivery_ratio"] == 1.0
        assert sum(base["dropped"].values()) == 0
        assert base["repair"] is None

    def test_worst_case_crash_loses_coverage_and_gets_a_repair(self, records):
        worst = next(r for r in records if r["scenario"] == "root_child")
        assert worst["coverage"] < 1.0
        repair = worst["repair"]
        assert repair is not None
        assert repair["survivors"] + repair["lost"] == worst["dests"] + 1
        assert repair["survivors"] >= 2 and repair["total_steps"] > 0
        assert repair["coverage"] == (repair["survivors"] - 1) / worst["dests"]

    def test_records_are_json_safe(self, records):
        assert json.loads(records_json(records)) == records

    def test_survival_table_renders_every_row(self, records):
        table = CHAOS.table(records)
        for scenario in SCENARIOS:
            assert scenario in table
        assert "chaos survival" in table


class TestCLI:
    def test_chaos_smoke_subcommand(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "chaos survival" in out
        assert "chaos smoke OK" in out

    def test_chaos_writes_records_with_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--runs", "1", "--dests", "7", "--bytes", "128", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["version"] == 1
        assert "manifest" in payload
        assert [r["scenario"] for r in payload["records"]] == list(SCENARIOS)
