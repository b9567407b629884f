"""One frame limit on every hop, one bound on plan work, and fail-fast
on a dead connection (service tier).

Regression tests for connection-poisoning bugs: an answer longer than
the client's line limit used to kill the client's read loop (and,
through the router, the router's shard connection with every forward
on it), after which the next request waited out its timeout on a dead
socket; and a plan with a huge ``m`` used to stall the server's worker
for tens of seconds, or exhaust its memory.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cluster import ClusterRouter, ShardSpec
from repro.service import PlanClient, PlanRequest, PlanServer, PlanServiceError, framing, plan
from repro.service.framing import encode_id, leading_id
from repro.service.planner import MAX_PLAN_WORK

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_cluster():
    shards = [PlanServer(port=0, shard_id=sid) for sid in range(2)]
    for shard in shards:
        await shard.start()
    router = ClusterRouter(
        [ShardSpec(sid, "127.0.0.1", s.port) for sid, s in enumerate(shards)],
        port=0,
        probe_interval=3600.0,
    )
    await router.start()
    return shards, router


async def stop_cluster(shards, router):
    await router.shutdown()
    for shard in shards:
        await shard.shutdown()


class TestFrameLimit:
    def test_large_plan_then_small_on_one_connection(self):
        """A ~100 KB answer used to exceed the client's 64 KiB line limit."""

        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                large = await client.plan(1024, 32, timeout=30)
                small = await client.plan(8, 2, timeout=5)
            await server.shutdown()
            return large, small

        large, small = run(body())
        assert large == plan(PlanRequest(n=1024, m=32))
        assert small == plan(PlanRequest(n=8, m=2))

    def test_large_plan_then_small_through_the_router(self):
        async def body():
            shards, router = await started_cluster()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                large = await client.plan(1024, 32, timeout=30)
                small = await client.plan(8, 2, timeout=5)
            errors = router.errors.value
            await stop_cluster(shards, router)
            return large, small, errors

        large, small, errors = run(body())
        assert large == plan(PlanRequest(n=1024, m=32))
        assert small == plan(PlanRequest(n=8, m=2))
        assert errors == 0

    def test_over_limit_answer_is_a_typed_error_and_the_connection_lives(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4096)

        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(64, 8, timeout=5)  # about 7 KB
                small = await client.plan(8, 2, timeout=5)
                alive = client.alive
            errors = server.metrics.errors.value
            await server.shutdown()
            return info.value, small, alive, errors

        error, small, alive, errors = run(body())
        assert error.code == "response_too_large"
        assert "4096" in error.message
        assert small == plan(PlanRequest(n=8, m=2))
        assert alive
        assert errors == 1

    def test_over_limit_answer_through_the_router(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 4096)

        async def body():
            shards, router = await started_cluster()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(64, 8, timeout=5)
                small = await client.plan(8, 2, timeout=5)
            # The shard's answer fits, but the router's, carrying a
            # long client id, would not: the router's own check.
            reader, writer = await asyncio.open_connection("127.0.0.1", router.port)
            rid = "x" * 3500
            writer.write(json.dumps({"type": "plan", "id": rid, "n": 8, "m": 2}).encode() + b"\n")
            relayed = json.loads(await reader.readline())
            writer.write(b'{"type": "ping", "id": 2}\n')
            pong = json.loads(await reader.readline())
            writer.close()
            failovers = router.failovers.value
            await stop_cluster(shards, router)
            return info.value, small, relayed, rid, pong, failovers

        error, small, relayed, rid, pong, failovers = run(body())
        # Not transient: relayed as-is, no replica hop.
        assert error.code == "response_too_large"
        assert failovers == 0
        assert small == plan(PlanRequest(n=8, m=2))
        assert relayed["id"] == rid
        assert relayed["error"]["code"] == "response_too_large"
        assert pong == {"id": 2, "ok": True, "pong": True}


class TestWorkBound:
    @pytest.mark.parametrize("via", ["server", "router"])
    def test_oversize_plan_and_amend_are_refused_at_once(self, via):
        """``(n - |exclude|) × m`` over the bound is a ``bad_request``."""
        m = MAX_PLAN_WORK // 64  # plan(64, m) is at the bound; one join passes it

        async def body():
            if via == "server":
                server = PlanServer(port=0, workers=1)
                await server.start()
                port = server.port
            else:
                shards, router = await started_cluster()
                port = router.port
            refusals = []
            async with await PlanClient.connect("127.0.0.1", port) as client:
                for call in (client.plan(64, 100_000, timeout=5), client.amend(64, m, join=1)):
                    started = time.monotonic()
                    with pytest.raises(PlanServiceError) as info:
                        await call
                    refusals.append((info.value, time.monotonic() - started))
                small = await client.plan(8, 2, timeout=5)
            if via == "server":
                planned = server.metrics.plans.value
                await server.shutdown()
            else:
                planned = sum(shard.metrics.plans.value for shard in shards)
                await stop_cluster(shards, router)
            return refusals, small, planned

        refusals, small, planned = run(body())
        for error, elapsed in refusals:
            assert error.code == "bad_request"
            assert str(MAX_PLAN_WORK) in error.message
            assert elapsed < 0.5
        assert small == plan(PlanRequest(n=8, m=2))
        assert planned == 1  # refused before admission


class TestDeadConnection:
    def test_request_on_a_dead_connection_fails_at_once(self):
        async def body():
            server = PlanServer(port=0)
            await server.start()
            client = await PlanClient.connect("127.0.0.1", server.port)
            await client.plan(8, 2, timeout=5)
            await server.shutdown()
            for _ in range(200):
                if not client.alive:
                    break
                await asyncio.sleep(0.01)
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                await client.plan(8, 2, timeout=10)
            elapsed = time.monotonic() - started
            await client.close()
            return elapsed

        assert run(body()) < 1.0


class TestIdFirstFraming:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (b'{"id":12,"ok":true}\n', (12, 8)),
            (b'{"id":0,"ok":false}\n', (0, 7)),
            (b'{"id":-1,"ok":true}\n', (None, 0)),
            (b'{"id":"12","ok":true}\n', (None, 0)),
            (b'{"id":null,"ok":true}\n', (None, 0)),
            (b'{"ok":true,"id":12}\n', (None, 0)),
            (b'{"id": 12, "ok": true}\n', (None, 0)),
            (b'{"id":12}\n', (None, 0)),
            (b'{"id":' + b"9" * 40 + b',"ok":true}\n', (None, 0)),
        ],
    )
    def test_leading_id(self, raw, expected):
        assert leading_id(raw) == expected

    @pytest.mark.parametrize("rid", [0, -7, 2**70, True, None, 1.5, "é☃", [1, {"a": "ü"}]])
    def test_encode_id_matches_json(self, rid):
        assert encode_id(rid) == json.dumps(rid, separators=(",", ":")).encode()
