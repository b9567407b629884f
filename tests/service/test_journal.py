"""Request journaling and warm restart (service tier)."""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.core.cache import cache_stats
from repro.params import MachineParams
from repro.service import PlanClient, PlanRequest, PlanServer, RequestJournal
from repro.service.planner import (
    MAX_PLAN_WORK,
    _plan_shape,
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
        fresh = RequestJournal(path)
        assert fresh.replay() == 2
        assert fresh.recovered_entries == 2
        # The memo the server's answers read is hot before any request.
        assert _plan_shape.cache_info().currsize == 2

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

    def test_requests_sharing_a_memo_entry_append_once(self, tmp_path):
        """Replay warms the compact memo, keyed ``(n - |exclude|, m,
        ports)``, so a request that warms no new entry is not written."""
        path = tmp_path / "req.journal"
        journal = RequestJournal(path)
        assert journal.record(PlanRequest(n=64, m=8)) is True
        assert journal.record(PlanRequest(n=65, m=8, exclude=(3,))) is False
        assert journal.record(PlanRequest(n=66, m=8, exclude=(9, 40))) is False
        assert journal.record(PlanRequest(n=64, m=8, params=MachineParams(t_s=2.0))) is False
        assert journal.record(PlanRequest(n=64, m=8, params=MachineParams(ports=2))) is True
        assert journal.record(PlanRequest(n=64, m=9)) is True
        assert len(path.read_text().splitlines()) == 3

    def test_a_routed_stream_journals_one_line_per_memo_key(self, tmp_path):
        """A stream like the ``plan_routed`` benchmark's: 2,000 mostly
        unique plans (n 128-512, m 8-32, 0-3 random exclusions) and the
        60-key warm set.  The journal holds at most one line per memo
        key, and replaying it fills the same memo entries as replaying
        every request."""
        rng = random.Random(0)
        sizes = [(n, m) for n in (128, 192, 256, 384, 512) for m in (8, 16, 32)]
        warm = [
            PlanRequest(n=n, m=m, exclude=tuple(range(1, e + 1))) for n, m in sizes for e in range(4)
        ]
        stream = []
        while len(stream) < 2000:
            for n, m in rng.sample(sizes, len(sizes)):
                exclude = rng.sample(range(1, n), rng.randint(0, 3))
                stream.append(PlanRequest(n=n, m=m, exclude=tuple(exclude)))
        requests = warm + stream[:2000]
        path = tmp_path / "req.journal"
        journal = RequestJournal(path)
        for request in requests:
            journal.record(request)
        keys = {(r.n - len(r.exclude), r.m, r.params.ports) for r in requests}
        assert len(keys) == 60
        assert len(path.read_text().splitlines()) <= len(keys)

        _plan_shape.cache_clear()
        for request in requests:
            plan_compact_json(request)
        every = set(_plan_shape._entries)
        _plan_shape.cache_clear()
        RequestJournal(path).replay()
        assert set(_plan_shape._entries) == every == keys

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
