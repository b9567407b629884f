"""Cluster integration: routing, replication, failover (service tier).

Most tests run in-process PlanServers as shards — one event loop,
ephemeral ports, fast.  The end of the module pays for one real
subprocess cluster to prove the SIGKILL story: a shard killed mid-load
costs retries, never client-visible errors, and every answer stays
byte-identical to the single-server path.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterRouter,
    HashRing,
    ShardSpec,
    plan_key,
    spawn_shards,
)
from repro.obs import parse_prometheus
from repro.params import MachineParams
from repro.service import (
    PlanClient,
    PlanRequest,
    PlanServer,
    PlanServiceError,
    StaleMapError,
    plan,
)

from ..service.helpers import compact_result

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_cluster(n_shards: int = 2, **router_kwargs):
    """In-process shards + router, all on ephemeral ports."""
    servers = []
    specs = []
    for sid in range(n_shards):
        server = PlanServer(port=0, workers=1, shard_id=sid)
        await server.start()
        servers.append(server)
        specs.append(ShardSpec(shard_id=sid, host="127.0.0.1", port=server.port))
    router_kwargs.setdefault("probe_interval", 0.05)
    router_kwargs.setdefault("probe_timeout", 0.5)
    router_kwargs.setdefault("fail_after", 2)
    router = ClusterRouter(specs, port=0, **router_kwargs)
    await router.start()
    return servers, router


async def stop_cluster(servers, router):
    await router.shutdown()
    for server in servers:
        await server.shutdown()


def owned_keys(ring: HashRing, m: int = 4):
    """One (n, owner) pair per ring member, n scanning upward."""
    found = {}
    n = 8
    while len(found) < len(ring.members):
        sid = ring.lookup(plan_key(n, m))
        found.setdefault(sid, n)
        n += 8
    return found


class TestRouterForwarding:
    def test_forwarded_plans_match_local_planner_exactly(self):
        async def body():
            servers, router = await started_cluster(3)
            client = await PlanClient.connect("127.0.0.1", router.port)
            mix = [(n, m) for n in (8, 16, 32, 64, 96) for m in (1, 4, 16)]
            results = await asyncio.gather(*[client.plan(n, m) for n, m in mix])
            status = router.status_report()
            await client.close()
            await stop_cluster(servers, router)
            return mix, results, status

        mix, results, status = run(body())
        for (n, m), result in zip(mix, results):
            # Byte-identical to the single-server/in-process path.
            assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
                plan(PlanRequest(n=n, m=m)).to_dict(), sort_keys=True
            )
        assert status["counters"]["forwarded"] == len(mix)
        assert status["counters"]["failovers"] == 0

    def test_requests_for_one_key_land_on_one_shard(self):
        """Routing by plan key preserves per-key single-flight dedupe."""

        async def body():
            # hot_threshold=0: no replica warming, so counts are exact.
            servers, router = await started_cluster(2, hot_threshold=0)
            client = await PlanClient.connect("127.0.0.1", router.port)
            await asyncio.gather(*[client.plan(64, 8) for _ in range(24)])
            stats = []
            for server in servers:
                stats.append(server.metrics.snapshot()["counters"])
            await client.close()
            await stop_cluster(servers, router)
            return router.ring, stats

        ring, stats = run(body())
        owner = ring.lookup(plan_key(64, 8))
        assert stats[owner]["plans"] == 24
        assert stats[1 - owner]["plans"] == 0

    def test_only_the_params_a_client_sent_travel_on(self, monkeypatch):
        """A request without ``params`` is forwarded without them, so
        no shard parses the paper machine's; sent ones travel on.  No
        ``form`` does: clients send none, the router drops a client's
        ``"compact"``, and every answer is the compact form."""
        from repro.params import MachineParams
        from repro.service import server as server_module

        parsed = []
        from_dict = MachineParams.from_dict.__func__

        def counted(cls, payload):
            parsed.append(payload)
            return from_dict(cls, payload)

        monkeypatch.setattr(MachineParams, "from_dict", classmethod(counted))
        params = MachineParams(t_s=1.0, t_r=2.0, t_step=1.0, t_sq=0.5, ports=2)
        forms = []  # the form of each plan or amend a shard received
        check_form = server_module._check_form

        def recorded(payload):
            forms.append(payload.get("form"))
            return check_form(payload)

        monkeypatch.setattr(server_module, "_check_form", recorded)

        async def body():
            servers, router = await started_cluster(2, hot_threshold=0)
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                plain = [await client.plan(32, 4), await client.amend(32, 4, join=1)]
                plain_parsed = parsed[:]
                del parsed[:]
                custom = [
                    await client.plan(32, 4, params),
                    await client.amend(32, 4, params, join=1),
                ]
                named = json.loads(
                    await client.request_raw({"type": "plan", "n": 32, "m": 4, "form": "compact"})
                )
            await stop_cluster(servers, router)
            return plain, plain_parsed, custom, named

        plain, plain_parsed, custom, named = run(body())
        assert forms == [None] * 5
        assert named["result"] == compact_result(PlanRequest(n=32, m=4))
        assert plain == [plan(PlanRequest(n=32, m=4)), plan(PlanRequest(n=33, m=4))]
        assert plain_parsed == []
        assert custom == [
            plan(PlanRequest(n=32, m=4, params=params)),
            plan(PlanRequest(n=33, m=4, params=params)),
        ]
        # Each custom request is parsed once by the router, once by its shard.
        assert parsed == [params.to_dict()] * 4

    def test_bad_requests_answer_without_a_shard_hop(self):
        async def body():
            servers, router = await started_cluster(2)
            client = await PlanClient.connect("127.0.0.1", router.port)
            with pytest.raises(PlanServiceError) as info:
                await client.plan(1, 2)
            await client.close()
            await stop_cluster(servers, router)
            return info.value

        assert run(body()).code == "bad_request"

    def test_router_health_and_ping(self):
        async def body():
            servers, router = await started_cluster(2)
            async with await PlanClient.connect("127.0.0.1", router.port) as client:
                health = await client.health()
                alive = await client.ping()
            await stop_cluster(servers, router)
            return health, alive

        health, alive = run(body())
        assert alive is True
        assert health["role"] == "router"
        assert health["members"] == [0, 1]
        assert health["ring_epoch"] == 0


class TestShardMapClient:
    def test_direct_routing_matches_local_planner(self):
        async def body():
            servers, router = await started_cluster(2)
            client = await ClusterClient.connect("127.0.0.1", router.port)
            mix = [(n, 4) for n in range(8, 136, 8)]
            results = await asyncio.gather(*[client.plan(n, m) for n, m in mix])
            forwarded = router.forwarded.value
            await client.close()
            await stop_cluster(servers, router)
            return mix, results, forwarded

        mix, results, forwarded = run(body())
        for (n, m), result in zip(mix, results):
            assert result == plan(PlanRequest(n=n, m=m))
        # Direct routing: the router carried the map, not the plans.
        assert forwarded == 0

    def test_shard_map_carries_addresses_for_every_member(self):
        async def body():
            servers, router = await started_cluster(3)
            client = await ClusterClient.connect("127.0.0.1", router.port)
            ring, specs = client.ring, dict(client._specs)
            await client.close()
            await stop_cluster(servers, router)
            return servers, ring, specs

        servers, ring, specs = run(body())
        assert set(specs) == set(ring.members) == {0, 1, 2}
        assert {specs[sid].port for sid in specs} == {s.port for s in servers}


class TestEpochFencing:
    def test_stale_epoch_is_refused_with_current_epoch(self):
        async def body():
            server = PlanServer(port=0, shard_id=0, ring_epoch=4)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(StaleMapError) as info:
                    await client.plan(16, 4, epoch=3)
                current = await client.plan(16, 4, epoch=4)
                ahead = await client.plan(16, 4, epoch=9)
            await server.shutdown()
            return info.value, current, ahead

        error, current, ahead = run(body())
        assert error.ring_epoch == 4
        assert current == plan(PlanRequest(n=16, m=4))
        assert ahead == current

    def test_configure_moves_the_epoch_monotonically(self):
        async def body():
            server = PlanServer(port=0)
            await server.start()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                configured = await client.configure(ring_epoch=2, shard_id=1)
                with pytest.raises(PlanServiceError) as info:
                    await client.configure(ring_epoch=1)
                health = await client.health()
            await server.shutdown()
            return configured, info.value, health

        configured, error, health = run(body())
        assert configured == {"shard_id": 1, "ring_epoch": 2}
        assert error.code == "bad_request"
        assert health["shard_id"] == 1 and health["ring_epoch"] == 2

    def test_cluster_client_recovers_from_stale_map(self):
        """A deliberately staled client refreshes and re-routes, no error."""

        async def body():
            servers, router = await started_cluster(2, probe_interval=5.0)
            client = await ClusterClient.connect("127.0.0.1", router.port)
            # Simulate a membership change behind the client's back:
            # the authority bumps its ring and configures the shards.
            router.ring.epoch += 1
            await router._configure_members()
            stale_epoch = client.epoch
            keys = owned_keys(client.ring)
            results = await asyncio.gather(
                *[client.plan(n, 4) for n in keys.values()]
            )
            retries, refreshed = client.stale_map_retries, client.epoch
            await client.close()
            await stop_cluster(servers, router)
            return keys, results, retries, stale_epoch, refreshed

        keys, results, retries, stale_epoch, refreshed = run(body())
        for n, result in zip(keys.values(), results):
            assert result == plan(PlanRequest(n=n, m=4))
        assert retries >= 1
        assert refreshed == stale_epoch + 1


class TestRouterShutdown:
    @pytest.mark.usefixtures("cold_memos")
    def test_shutdown_answers_forwards_in_flight(self, plan_gate):
        """A forward whose shard is still computing when the router
        shuts down is answered before the router closes."""
        two = MachineParams(ports=2)

        async def body():
            shard = PlanServer(port=0, shard_id=0)
            await shard.start()
            router = ClusterRouter(
                [ShardSpec(0, "127.0.0.1", shard.port)], port=0, probe_interval=3600.0
            )
            await router.start()
            client = await PlanClient.connect("127.0.0.1", router.port)
            pending = asyncio.ensure_future(client.plan(24, 3, two, timeout=10))
            await plan_gate.entered()  # forwarded, held in the shard's executor
            assert not pending.done()
            asyncio.get_running_loop().call_later(0.1, plan_gate.open)
            await router.shutdown()
            result = await pending
            await client.close()
            await shard.shutdown()
            return result

        assert run(body()) == plan(PlanRequest(n=24, m=3, params=two))


class TestFailover:
    def test_dead_shard_fails_over_inline_and_is_evicted(self):
        async def body():
            servers, router = await started_cluster(2, rejoin=False)
            client = await PlanClient.connect("127.0.0.1", router.port)
            keys = owned_keys(router.ring)
            victim = min(keys)  # deterministic choice; any member works
            await servers[victim].shutdown(drain=False)
            # Keys owned by the dead shard must answer via the replica.
            results = await asyncio.gather(
                *[client.plan(n, 4) for n in keys.values()]
            )
            survivor = servers[1 - victim]
            # Probes evict within a few intervals.  The eviction bumps
            # the ring's epoch before it closes the dead shard's client
            # and configures the survivor, so wait for both.
            for _ in range(100):
                if 0 < router.ring.epoch == survivor.ring_epoch:
                    break
                await asyncio.sleep(0.05)
            status = router.status_report()
            survivor_epoch = survivor.ring_epoch
            await client.close()
            await stop_cluster(servers, router)
            return keys, victim, results, status, survivor_epoch

        keys, victim, results, status, survivor_epoch = run(body())
        for n, result in zip(keys.values(), results):
            assert result == plan(PlanRequest(n=n, m=4))
        assert status["counters"]["failovers"] >= 1
        assert status["down"] == [victim]
        assert status["ring"]["epoch"] == 1
        assert status["ring"]["members"] == [1 - victim]
        # The survivor was reconfigured to the post-eviction epoch.
        assert survivor_epoch == 1

    def test_recovered_shard_rejoins_with_an_epoch_bump(self):
        async def body():
            servers, router = await started_cluster(2, rejoin=True)
            victim = 0
            port = servers[victim].port
            await servers[victim].shutdown(drain=False)
            for _ in range(100):
                if router.ring.epoch == 1:
                    break
                await asyncio.sleep(0.05)
            assert victim not in router.ring.members
            # "Respawn" the shard on its old address.
            revived = PlanServer(port=port, shard_id=victim)
            await revived.start()
            servers[victim] = revived
            for _ in range(100):
                if victim in router.ring.members:
                    break
                await asyncio.sleep(0.05)
            status = router.status_report()
            await stop_cluster(servers, router)
            return victim, status

        victim, status = run(body())
        assert victim in status["ring"]["members"]
        assert status["down"] == []
        assert status["ring"]["epoch"] == 2  # evict + rejoin
        assert status["counters"]["rejoins"] == 1

    def test_hot_keys_are_warmed_on_the_replica(self):
        async def body():
            servers, router = await started_cluster(
                2, hot_threshold=4, probe_interval=5.0
            )
            client = await PlanClient.connect("127.0.0.1", router.port)
            for _ in range(6):
                await client.plan(64, 8)
            # Let the fire-and-forget warm request land.
            for _ in range(100):
                if all(s.metrics.snapshot()["counters"]["plans"] > 0 for s in servers):
                    break
                await asyncio.sleep(0.02)
            warmed = router.warmed_keys.value
            counts = [s.metrics.snapshot()["counters"]["plans"] for s in servers]
            await client.close()
            await stop_cluster(servers, router)
            return router.ring, warmed, counts

        ring, warmed, counts = run(body())
        owner = ring.lookup(plan_key(64, 8))
        assert warmed == 1
        assert counts[owner] == 6
        assert counts[1 - owner] == 1  # exactly the warm request

    def test_a_warmed_compact_key_is_a_memo_hit_after_failover(self):
        """The replica's warm request fills the compact memo, so once
        the primary dies the hot key is answered on the replica's read
        loop: a memo hit, no batcher submit, and one memo entry in all."""
        from repro.core import clear_caches
        from repro.service.planner import _plan_shape

        async def body():
            clear_caches()
            servers, router = await started_cluster(
                2, hot_threshold=4, probe_interval=5.0, rejoin=False
            )
            owner = router.ring.lookup(plan_key(64, 8))
            replica = servers[1 - owner]
            client = await PlanClient.connect("127.0.0.1", router.port)
            for _ in range(4):
                await client.plan(64, 8, exclude=(5,))
            for _ in range(100):  # the fire-and-forget warm request lands
                if replica.metrics.plans.value:
                    break
                await asyncio.sleep(0.02)
            await servers[owner].shutdown(drain=False)
            before = replica.metrics.snapshot()["counters"]
            result = await client.plan(64, 8, exclude=(5,))
            after = replica.metrics.snapshot()["counters"]
            memos = _plan_shape.cache_info().currsize
            failovers = router.failovers.value
            await client.close()
            await stop_cluster(servers, router)
            return result, before, after, memos, failovers

        result, before, after, memos, failovers = run(body())
        assert result == plan(PlanRequest(n=64, m=8, exclude=(5,)))
        assert failovers == 1
        assert before["plans"] == 1  # the warm request
        assert after["plans"] - before["plans"] == 1
        assert after["memo_hits"] - before["memo_hits"] == 1
        assert after["planned"] == before["planned"]
        assert memos == 1


class TestClusterExposition:
    def test_metrics_scrape_is_strict_legal_with_shard_labels(self):
        async def body():
            servers, router = await started_cluster(2, probe_interval=0.05)
            client = await PlanClient.connect("127.0.0.1", router.port)
            for n in (8, 16, 32):
                await client.plan(n, 4)
            for _ in range(100):  # wait until both shards were probed
                if len(router._health) == 2:
                    break
                await asyncio.sleep(0.02)
            raw = await client.request({"type": "metrics"})
            await client.close()
            await stop_cluster(servers, router)
            return raw

        raw = run(body())
        assert raw["ok"] is True
        families = parse_prometheus(raw["metrics"])  # strict: must be legal
        shard_labels = {
            labels.get("shard")
            for family in families.values()
            for _, labels, _ in family.samples
        }
        assert {"router", "0", "1"} <= shard_labels
        router_family = families["repro_router_counters_forwarded_total"]
        assert router_family.type == "counter"
        # In-process shards share GLOBAL_METRICS, so the family also
        # shows up under shard="0"/"1"; the router's own series is the
        # one that matters here.
        [value] = [
            value
            for _, labels, value in router_family.samples
            if labels == {"shard": "router"}
        ]
        assert value == 3.0
        # Per-shard histogram series coexist under one family name.
        latency = families["repro_service_plan_latency_us"]
        shards_with_buckets = {
            labels["shard"]
            for name, labels, _ in latency.samples
            if name.endswith("_bucket")
        }
        assert shards_with_buckets == {"0", "1"}


class TestSubprocessSIGKILL:
    """The ISSUE's kill-one-shard e2e: real processes, real SIGKILL."""

    def test_sigkill_mid_load_costs_retries_never_errors(self):
        shards = spawn_shards(2)
        try:
            run(self._drive(shards))
        finally:
            for shard in shards:
                shard.kill()

    async def _drive(self, shards):
        specs = [s.spec for s in shards]
        router = ClusterRouter(
            specs, port=0, probe_interval=0.1, probe_timeout=1.0, fail_after=2,
            rejoin=False,
        )
        await router.start()
        client = await ClusterClient.connect("127.0.0.1", router.port)
        victim = router.ring.lookup(plan_key(64, 8))
        warmup = [(64, 8), (48, 4), (96, 16), (32, 2)]
        for n, m in warmup:
            await client.plan(n, m)
        # Keys the victim owns: these MUST hit the corpse after the kill.
        victim_keys = [
            (n, 8) for n in range(8, 512, 8)
            if router.ring.lookup(plan_key(n, 8)) == victim
        ][:4]
        assert victim_keys, "ring should give the victim some keys"
        tasks = [
            asyncio.ensure_future(client.plan(n, m))
            for n, m in warmup + victim_keys
        ]
        shards[victim].kill()  # SIGKILL, mid-load
        mix = warmup + victim_keys
        results = await asyncio.gather(*tasks)  # raises on any client error
        for (n, m), result in zip(mix, results):
            assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
                plan(PlanRequest(n=n, m=m)).to_dict(), sort_keys=True
            )
        for _ in range(100):  # probes notice the corpse
            if victim not in router.ring.members:
                break
            await asyncio.sleep(0.05)
        status = router.status_report()
        assert status["down"] == [victim]
        assert status["ring"]["epoch"] == 1
        # The kill was absorbed by retries/failover, never surfaced.
        recovered = (
            client.stale_map_retries
            + client.router_fallbacks
            + status["counters"]["failovers"]
        )
        assert recovered >= 1
        await client.close()
        await router.shutdown()
