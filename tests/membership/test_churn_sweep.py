"""Churn campaign: point purity, smoke contract, records, table, CLI.

Worker-count determinism and checkpoint resume are pinned for every
campaign in ``tests/analysis/test_campaign.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import load_records, write_records
from repro.cli import main
from repro.membership import CHURN, SCENARIOS, churn_point


class TestDeterminism:
    def test_point_is_a_pure_function_of_its_arguments(self):
        a = churn_point("poisson", 0, 15, 4)
        b = churn_point("poisson", 0, 15, 4)
        assert a == b

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            churn_point("meteor", 0, 15, 4)


class TestSmoke:
    @pytest.fixture(scope="class")
    def records(self):
        return CHURN.smoke()

    def test_covers_every_scenario(self, records):
        assert [r["scenario"] for r in records] == list(SCENARIOS)

    def test_every_scenario_delivers_to_stable_members(self, records):
        for record in records:
            assert record["stable_complete"], record["scenario"]
            assert record["delivery_to_stable"] == 1.0, record["scenario"]

    def test_baseline_row_is_clean(self, records):
        base = next(r for r in records if r["scenario"] == "baseline")
        assert base["events"] == 0 and base["amends"] == 0
        assert sum(base["dropped"].values()) == 0

    def test_poisson_mixes_joins_and_leaves(self, records):
        poisson = next(r for r in records if r["scenario"] == "poisson")
        assert poisson["joins"] > 0 and poisson["leaves"] > 0

    def test_flash_join_catches_everyone_up(self, records):
        flash = next(r for r in records if r["scenario"] == "flash_join")
        assert flash["joined"] > 0
        assert flash["caught_up"] == flash["joined"]

    def test_correlated_leave_amends(self, records):
        corr = next(r for r in records if r["scenario"] == "correlated_leave")
        assert corr["departed"] >= 1 and corr["amends"] >= 1

    def test_records_round_trip(self, records, tmp_path):
        path = tmp_path / "churn_records.json"
        write_records(path, records, {"command": "churn"})
        assert load_records(path) == records

    def test_load_records_rejects_corruption(self, tmp_path):
        from repro.durable import atomic_write_json
        from repro.durable.errors import StoreCorruptionError

        path = tmp_path / "bad.json"
        path.write_text('[{"scenario": "poisson"}]')  # a bare list: no envelope
        with pytest.raises(StoreCorruptionError, match="expected an object"):
            load_records(path)
        path.write_text('{"version": 1, "records": []}')  # an envelope without a CRC
        with pytest.raises(StoreCorruptionError, match="checksum"):
            load_records(path)
        atomic_write_json(path, {"version": 1, "records": {"not": "a list"}})
        with pytest.raises(StoreCorruptionError, match="no record list"):
            load_records(path)

    def test_table_renders_every_scenario(self, records):
        table = CHURN.table(records)
        for scenario in SCENARIOS:
            assert scenario in table


class TestCLI:
    def test_churn_smoke_subcommand(self, capsys):
        assert main(["churn", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "membership churn" in out
        assert "churn smoke OK" in out

    def test_churn_writes_records_with_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "churn.json"
        code = main(
            ["churn", "--runs", "1", "--dests", "7", "--bytes", "128", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["version"] == 1
        assert "manifest" in payload
        assert [r["scenario"] for r in payload["records"]] == list(SCENARIOS)
