"""Request journaling and warm restart (service tier)."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.cache import cache_stats
from repro.params import MachineParams
from repro.service import PlanClient, PlanRequest, PlanServer, RequestJournal
from repro.service.planner import (
    MAX_PLAN_WORK,
    _plan_shape,
    _schedule_wire,
    plan_compact_json,
    plan_work,
)

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


class TestRequestJournal:
    def test_distinct_requests_append_once(self, tmp_path):
        journal = RequestJournal(tmp_path / "req.journal")
        a = PlanRequest(n=64, m=8)
        b = PlanRequest(n=32, m=4)
        assert journal.record(a) is True
        assert journal.record(a) is False  # duplicate: no second line
        assert journal.record(b) is True
        assert len((tmp_path / "req.journal").read_text().splitlines()) == 2

    def test_load_roundtrips_params_and_exclude(self, tmp_path):
        journal = RequestJournal(tmp_path / "req.journal")
        request = PlanRequest(
            n=16, m=2, params=MachineParams(t_s=1.0, ports=2), exclude=(3, 5)
        )
        journal.record(request)
        loaded, skipped = RequestJournal(tmp_path / "req.journal").load()
        assert skipped == 0
        assert loaded == [request]

    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "req.journal"
        journal = RequestJournal(path)
        journal.record(PlanRequest(n=64, m=8))
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"kind": "plan", "version": 1, "n": 8}\n')  # no CRC
        journal.record(PlanRequest(n=32, m=4))
        # Tamper the n=32 line: complete JSON, wrong checksum.
        raw = path.read_text().replace('"n":32', '"n":33')
        path.write_text(raw)

        fresh = RequestJournal(path)
        loaded, skipped = fresh.load()
        assert [r.n for r in loaded] == [64]
        assert skipped == 3

    def test_replay_warms_the_plan_memo(self, tmp_path):
        path = tmp_path / "req.journal"
        journal = RequestJournal(path)
        journal.record(PlanRequest(n=48, m=6))
        journal.record(PlanRequest(n=24, m=3))

        _plan_shape.cache_clear()
        _schedule_wire.cache_clear()
        fresh = RequestJournal(path)
        assert fresh.replay() == 2
        assert fresh.recovered_entries == 2
        # The memo a client's compact answer reads is hot before any
        # request, and no full-form template was built.
        assert _plan_shape.cache_info().currsize == 2
        assert _schedule_wire.cache_info().currsize == 0

        _plan_shape.cache_clear()

        async def first_request():
            server = PlanServer(port=0, journal=RequestJournal(path))
            await server.start()  # replays the journal
            before = cache_stats()["plan_shape"]
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.plan(48, 6)
            after = cache_stats()["plan_shape"]
            await server.shutdown()
            return before, after

        before, after = run(first_request())
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_replay_skips_requests_over_the_work_bound(self, tmp_path, monkeypatch):
        # A request the server now refuses may sit in a journal written
        # before the bound existed (record() runs before the plan, so
        # the request that killed the server is already on disk).
        path = tmp_path / "req.journal"
        journal = RequestJournal(path)
        journal.record(PlanRequest(n=64, m=10**6))
        journal.record(PlanRequest(n=24, m=3))
        journal.record(PlanRequest(n=66, m=MAX_PLAN_WORK // 64, exclude=(1, 2)))

        encoded = []

        def guarded_encode(request):
            # Fail instead of running a schedule that would take minutes
            # and gigabytes.
            assert plan_work(request) <= MAX_PLAN_WORK, request
            encoded.append(request)
            return plan_compact_json(request)

        monkeypatch.setattr("repro.service.journal.plan_compact_json", guarded_encode)
        fresh = RequestJournal(path)
        started = time.perf_counter()
        assert fresh.replay() == 2
        assert time.perf_counter() - started < 5.0
        assert fresh.skipped_entries == 1
        assert [r.n for r in encoded] == [24, 66]

    def test_replay_marks_entries_seen(self, tmp_path):
        path = tmp_path / "req.journal"
        RequestJournal(path).record(PlanRequest(n=64, m=8))
        fresh = RequestJournal(path)
        fresh.replay()
        assert fresh.record(PlanRequest(n=64, m=8)) is False  # not re-journaled
        assert len(path.read_text().splitlines()) == 1


class TestWarmRestart:
    def test_server_journals_and_recovers(self, tmp_path):
        path = tmp_path / "req.journal"

        async def first_life():
            server = PlanServer(port=0, journal=RequestJournal(path))
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.plan(64, 8)
                await client.plan(64, 8)  # duplicate
                await client.plan(32, 4)
                health = (await client.request({"type": "health"}))["health"]
            await server.shutdown()
            return health

        async def second_life():
            server = PlanServer(port=0, journal=RequestJournal(path))
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = (await client.request({"type": "health"}))["health"]
            await server.shutdown()
            return health

        health1 = run(first_life())
        assert health1["recovered_entries"] == 0
        health2 = run(second_life())
        assert health2["recovered_entries"] == 2

    def test_health_reports_zero_without_journal(self):
        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = (await client.request({"type": "health"}))["health"]
            await server.shutdown()
            return health

        assert run(body())["recovered_entries"] == 0

    def test_recovery_surfaces_in_durable_metrics(self, tmp_path):
        from repro.durable import DURABLE_METRICS
        from repro.obs import GLOBAL_METRICS

        path = tmp_path / "req.journal"
        RequestJournal(path).record(PlanRequest(n=16, m=2))
        before = DURABLE_METRICS.snapshot()["journal_entries_recovered"]
        RequestJournal(path).replay()
        snap = GLOBAL_METRICS.snapshot()
        assert snap["durable"]["journal_entries_recovered"] == before + 1
