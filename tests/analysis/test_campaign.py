"""The campaign harness: chaos, churn and sessions share one sweep,
smoke, record format and CLI path, so each property is pinned once for
all three declarations."""

from __future__ import annotations

import json

import pytest

from repro.analysis import load_records, records_json
from repro.cli import main
from repro.durable import DURABLE_METRICS
from repro.durable.errors import StoreCorruptionError
from repro.faults import CHAOS
from repro.membership import CHURN
from repro.sessions import SESSIONS

CAMPAIGNS = [CHAOS, CHURN, SESSIONS]


@pytest.fixture(params=CAMPAIGNS, ids=lambda c: c.name)
def campaign(request):
    return request.param


def _smoke_sweep(campaign, **kwargs):
    return campaign.sweep(campaign.smoke_grid(), **kwargs, **campaign.smoke_kwargs)


class TestDeterminism:
    def test_records_identical_across_worker_counts(self, campaign):
        serial = records_json(_smoke_sweep(campaign, workers=1))
        parallel = records_json(_smoke_sweep(campaign, workers=4))
        assert serial == parallel

    def test_checkpointed_sweep_resumes_byte_identically(self, campaign, tmp_path):
        checkpoint = tmp_path / f"{campaign.name}.ckpt"
        full = records_json(_smoke_sweep(campaign, checkpoint=checkpoint))
        # Crash after the first chunk: keep the header and one chunk line.
        lines = checkpoint.read_text().splitlines(keepends=True)
        checkpoint.write_text("".join(lines[:2]))
        before = DURABLE_METRICS.snapshot()["chunks_resumed"]
        resumed = records_json(_smoke_sweep(campaign, checkpoint=checkpoint))
        assert DURABLE_METRICS.snapshot()["chunks_resumed"] == before + 1
        assert resumed == full

    def test_unknown_grid_axis_rejected(self, campaign):
        with pytest.raises(ValueError, match="no grid axes"):
            campaign.grid(meteor=(1,))


@pytest.fixture(params=CAMPAIGNS, ids=lambda c: c.name, scope="module")
def smoke_out(request, tmp_path_factory):
    """A ``--smoke --out`` file written by the CLI, and its campaign."""
    campaign = request.param
    path = tmp_path_factory.mktemp(campaign.name) / f"{campaign.name}.json"
    assert main([campaign.name, "--smoke", "--out", str(path)]) == 0
    return campaign, path


class TestRecordFile:
    def test_cli_out_reads_back_through_load_records(self, smoke_out):
        campaign, path = smoke_out
        assert records_json(load_records(path)) == records_json(campaign.smoke())

    def test_truncated_file_rejected(self, smoke_out, tmp_path):
        _, path = smoke_out
        bad = tmp_path / "truncated.json"
        text = path.read_text()
        bad.write_text(text[: len(text) // 2])
        with pytest.raises(StoreCorruptionError, match="truncated or corrupt"):
            load_records(bad)

    def test_edited_record_value_rejected(self, smoke_out, tmp_path):
        _, path = smoke_out
        doc = json.loads(path.read_text())
        doc["records"][0]["seed"] += 1
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            load_records(bad)


class TestCLISmoke:
    def test_smoke_honours_seed_and_checkpoint(self, campaign, capsys, tmp_path):
        checkpoint, out = tmp_path / "smoke.ckpt", tmp_path / "smoke.json"
        argv = [campaign.name, "--smoke", "--seed", "5"]
        argv += ["--checkpoint", str(checkpoint), "--out", str(out)]
        assert main(argv) == 0
        assert campaign.smoke_ok in capsys.readouterr().out
        assert checkpoint.stat().st_size > 0
        payload = json.loads(out.read_text())
        manifest = payload["manifest"]
        assert manifest["seed"] == 5 and manifest["smoke"] is True
        assert manifest["params"]["grid"] == campaign.smoke_grid(5)
        assert manifest["params"]["point"] == dict(campaign.smoke_kwargs)
        assert {r["seed"] for r in payload["records"]} == {5}
