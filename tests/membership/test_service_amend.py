"""The ``amend`` wire type: fold, dedupe, fencing, routing (service tier)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    PlanClient,
    PlanRequest,
    PlanServer,
    PlanServiceError,
    SourceFailedError,
    StaleMapError,
    amend_remote,
    plan,
)

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_server(**kwargs) -> PlanServer:
    server = PlanServer(port=0, **kwargs)
    await server.start()
    return server


class TestAmendWire:
    def test_amend_equals_cold_replan_over_the_wire(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                result = await client.amend(16, 4, exclude=(3,), join=2, leave=(5, 9))
            await server.shutdown()
            return result

        result = run(body())
        assert result == plan(PlanRequest(n=18, m=4, exclude=(3, 5, 9)))

    def test_response_echoes_the_amended_request(self):
        async def body():
            server = await started_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                json.dumps(
                    {
                        "type": "amend",
                        "id": 1,
                        "n": 16,
                        "m": 4,
                        "delta": {"join": 1, "leave": [7]},
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return response

        response = run(body())
        assert response["ok"]
        assert response["amended"] == {"n": 17, "m": 4, "exclude": [7]}

    def test_source_leave_is_a_structured_error(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(SourceFailedError) as info:
                    await client.amend(16, 4, leave=(0,))
                errors = server.metrics.snapshot()["counters"]["errors"]
            await server.shutdown()
            return info.value, errors

        error, errors = run(body())
        assert error.code == "source_failed"
        assert "source" in error.message
        assert errors == 1

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"type": "amend", "n": 8, "m": 2}, "delta"),
            ({"type": "amend", "n": 8, "m": 2, "delta": 5}, "delta"),
            (
                {"type": "amend", "n": 8, "m": 2, "delta": {"evict": [1]}},
                "unknown delta fields",
            ),
            (
                {"type": "amend", "n": 8, "m": 2, "delta": {"leave": 3}},
                "delta.leave",
            ),
            (
                {"type": "amend", "n": 8, "m": 2, "delta": {"leave": [9]}},
                "outside",
            ),
        ],
    )
    def test_malformed_amends_are_bad_requests(self, payload, fragment):
        async def body():
            server = await started_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return response

        response = run(body())
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert fragment in response["error"]["message"]

    def test_amended_n_respects_max_n(self):
        async def body():
            server = await started_server(max_n=16)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.amend(16, 4, join=1)
            await server.shutdown()
            return info.value

        error = run(body())
        assert error.code == "bad_request" and "max_n" in error.message

    def test_epoch_fencing_applies_to_amend(self):
        async def body():
            server = await started_server(shard_id=0, ring_epoch=4)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(StaleMapError) as info:
                    await client.amend(16, 4, join=1, epoch=3)
                current = await client.amend(16, 4, join=1, epoch=4)
            await server.shutdown()
            return info.value, current

        error, current = run(body())
        assert error.ring_epoch == 4
        assert current == plan(PlanRequest(n=17, m=4))


class TestChurnBurstCoalescing:
    @pytest.mark.usefixtures("cold_memos")
    def test_identical_amends_singleflight(self):
        """A flash crowd of equal deltas folds to one computation."""

        async def body():
            server = await started_server(max_delay=0.01)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                results = await asyncio.gather(
                    *[client.amend(48, 8, join=3, leave=(7,)) for _ in range(16)]
                )
                counters = server.metrics.snapshot()["counters"]
            await server.shutdown()
            return results, counters

        results, counters = run(body())
        expected = plan(PlanRequest(n=51, m=8, exclude=(7,)))
        assert all(r == expected for r in results)
        assert counters["amends"] == 16
        assert counters["singleflight_hits"] >= 8

    def test_amends_counter_tracks_accepted_amends(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.amend(16, 4, join=1)
                await client.plan(16, 4)
                counters = server.metrics.snapshot()["counters"]
            await server.shutdown()
            return counters

        counters = run(body())
        assert counters["amends"] == 1
        assert counters["requests"] == 2


class TestSyncWrapper:
    def test_amend_remote(self):
        """The sync wrapper runs in a worker thread with its own loop."""

        async def body():
            server = await started_server()
            result = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: amend_remote(
                    "127.0.0.1", server.port, 16, 4, join=2, leave=(5,)
                ),
            )
            await server.shutdown()
            return result

        assert run(body()) == plan(PlanRequest(n=18, m=4, exclude=(5,)))


class TestRouterForwarding:
    def _cluster(self):
        from repro.cluster import ClusterRouter, ShardSpec

        async def start():
            servers = []
            specs = []
            for sid in range(2):
                server = PlanServer(port=0, shard_id=sid)
                await server.start()
                servers.append(server)
                specs.append(
                    ShardSpec(shard_id=sid, host="127.0.0.1", port=server.port)
                )
            router = ClusterRouter(specs, port=0, probe_interval=5.0)
            await router.start()
            return servers, router

        return start

    def test_amend_routes_through_the_cluster(self):
        async def body():
            servers, router = await self._cluster()()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                result = await client.amend(24, 4, join=2, leave=(5,))
                with pytest.raises(SourceFailedError):
                    await client.amend(24, 4, leave=(0,))
            shard_amends = []
            for server in servers:
                shard_amends.append(server.metrics.snapshot()["counters"]["amends"])
            await router.shutdown()
            for server in servers:
                await server.shutdown()
            return result, shard_amends

        result, shard_amends = run(body())
        assert result == plan(PlanRequest(n=26, m=4, exclude=(5,)))
        # Exactly one shard planned it (routed by the amended key) and
        # kept the amends accounting.
        assert sorted(shard_amends) == [0, 1]

    def test_equal_deltas_land_on_one_shard(self):
        """Routing by the *amended* key keeps dedupe locality: repeats
        of the same delta all walk to the same shard."""

        async def body():
            servers, router = await self._cluster()()
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                for _ in range(6):
                    await client.amend(24, 4, join=2, leave=(5,))
            shard_amends = [
                s.metrics.snapshot()["counters"]["amends"] for s in servers
            ]
            await router.shutdown()
            for server in servers:
                await server.shutdown()
            return shard_amends

        shard_amends = run(body())
        assert sorted(shard_amends) == [0, 6]
