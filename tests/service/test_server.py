"""Plan server integration: real sockets, admission, drain (service tier).

Everything here runs against an in-process server bound to an
ephemeral port (``port=0``), with micro-batch windows of tens of
milliseconds, so the whole module stays well inside the tier-1 time
budget.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time

import pytest

from repro.params import MachineParams
from repro.service import (
    OverloadedError,
    PlanClient,
    PlanRequest,
    PlanServer,
    PlanServiceError,
    batching,
    framing,
    plan,
)

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_server(**kwargs) -> PlanServer:
    server = PlanServer(port=0, **kwargs)
    await server.start()
    return server


class TestEndToEnd:
    @pytest.mark.usefixtures("cold_memos")
    def test_hundred_concurrent_mixed_requests(self):
        """The ISSUE's acceptance scenario, minus the overload half."""

        async def body():
            server = await started_server(workers=2, max_delay=0.01)
            # 40 duplicates of one hot key + 60 spread over 12 keys + 20
            # distinct: 120 concurrent requests, 33 unique.
            mix = (
                [(64, 8)] * 40
                + [(n, m) for n in (8, 16, 24, 32) for m in (1, 2, 4)] * 5
                + [(n, 5) for n in range(40, 60)]
            )
            client = await PlanClient.connect("127.0.0.1", server.port)
            results = await asyncio.gather(*[client.plan(n, m) for n, m in mix])
            stats = await client.stats()
            await client.close()
            await server.shutdown()
            return mix, results, stats

        mix, results, stats = run(body())
        assert len(results) == 120
        for (n, m), result in zip(mix, results):
            assert result == plan(PlanRequest(n=n, m=m))
        counters = stats["counters"]
        assert counters["plans"] == 120
        # Duplicates were answered from single-flight, observably.
        assert counters["planned"] < counters["plans"]
        assert counters["singleflight_hits"] > 0
        assert counters["shed"] == 0
        assert stats["plan_latency"]["count"] == 120
        assert stats["cache"]["plan_shape"]["misses"] >= 1

    def test_custom_params_travel_the_wire(self):
        async def body():
            server = await started_server()
            params = MachineParams(t_s=1.0, t_r=2.0, t_step=1.0, t_sq=0.5, ports=2)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                result = await client.plan(32, 4, params)
            await server.shutdown()
            return params, result

        params, result = run(body())
        assert result == plan(PlanRequest(n=32, m=4, params=params))

    def test_ping(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                alive = await client.ping()
            await server.shutdown()
            return alive

        assert run(body()) is True

    def test_no_request_builds_an_analytic_surface(self, monkeypatch):
        """Every answer comes from the memoized optimal_k, whatever the env.

        ``(2, 65536)`` is admitted (its work equals ``MAX_PLAN_WORK``);
        a table covering it holds a 129 × 7 × 65536 objective, about a
        GiB.  The retired ``REPRO_SURFACE`` gate is set to prove it
        selects nothing.
        """
        from repro.core import AnalyticSurface, cache_stats

        def refuse(*args, **kwargs):
            raise AssertionError("a plan request built an analytic surface")

        monkeypatch.setenv("REPRO_SURFACE", "1")
        monkeypatch.setattr(AnalyticSurface, "build", refuse)
        sizes = [(2, 65536), (1024, 32)]

        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                results = [await client.plan(n, m) for n, m in sizes]
            await server.shutdown()
            return results

        for (n, m), result in zip(sizes, run(body())):
            assert result == plan(PlanRequest(n=n, m=m))
        assert "surface" not in cache_stats()


class TestFairness:
    @pytest.mark.usefixtures("cold_memos")
    def test_a_pipelined_burst_does_not_hold_the_loop(self, monkeypatch):
        """Warm answers are written from the read callback, at most
        :data:`~repro.service.framing.LINES_PER_CALLBACK` lines per
        callback: 4,000 pipelined warm plans on one connection must not
        keep a ping on another waiting until the last of them is
        answered.

        The server's loop runs in a thread and is held while both
        connections send, and a thread reads connection A's answers, so
        no write of the server's waits.  A callback that answered every
        line it had received would answer the ping after a whole receive
        window of A's lines (about 1,750 of them here); one that hands
        the loop back after a budget of lines answers it within the
        first few dozen.  The written lines are recorded in order, each
        ``write`` split into its lines.
        """
        written = []
        write = framing.LineProtocol.write

        def recording(connection, data):
            written.extend(data.splitlines(keepends=True))
            write(connection, data)

        monkeypatch.setattr(framing.LineProtocol, "write", recording)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server = asyncio.run_coroutine_threadsafe(started_server(), loop).result(30)
        connections = []
        for _ in range(2):
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
            lines = sock.makefile("rb")
            sock.sendall(b'{"type":"plan","n":8,"m":2}\n')  # warms the key
            lines.readline()
            connections.append((sock, lines))
        (sock_a, lines_a), (sock_b, lines_b) = connections
        reader = threading.Thread(target=lambda: [lines_a.readline() for _ in range(4000)])
        reader.start()
        holding, release = threading.Event(), threading.Event()

        def hold():
            holding.set()
            release.wait(10)

        written.clear()
        loop.call_soon_threadsafe(hold)
        assert holding.wait(10)
        sock_a.sendall(
            b"".join(b'{"type":"plan","id":%d,"n":8,"m":2}\n' % rid for rid in range(4000))
        )
        sock_b.sendall(b'{"type":"ping","id":"b"}\n')
        release.set()
        pong = lines_b.readline()
        reader.join(30)
        for sock, lines in connections:
            lines.close()
            sock.close()
        asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()

        assert pong == b'{"id":"b","ok":true,"pong":true}\n'
        assert server.metrics.memo_hits.value == 4001
        last_a = max(i for i, data in enumerate(written) if data.startswith(b'{"id":3999,'))
        assert written.index(pong) < last_a
        assert written.index(pong) < 100


class TestAdmissionControl:
    @pytest.mark.usefixtures("cold_memos")
    def test_burst_over_budget_is_shed_not_queued(self):
        async def body():
            # A long batch window parks admitted plans in flight, so a
            # burst larger than max_inflight must shed the excess.
            server = await started_server(max_inflight=4, max_delay=0.3)
            client = await PlanClient.connect("127.0.0.1", server.port)
            outcomes = await asyncio.gather(
                *[client.plan(10 + i, 2) for i in range(12)], return_exceptions=True
            )
            stats = await client.stats()
            await client.close()
            await server.shutdown()
            return outcomes, stats

        outcomes, stats = run(body())
        shed = [o for o in outcomes if isinstance(o, OverloadedError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 8
        assert len(served) == 4
        for result in served:
            assert result == plan(PlanRequest(n=result.n, m=2))
        assert stats["counters"]["shed"] == 8

    def test_oversized_n_rejected_at_the_boundary(self):
        async def body():
            server = await started_server(max_n=128)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(129, 1)
            await server.shutdown()
            return info.value

        error = run(body())
        assert error.code == "bad_request"
        assert "max_n" in error.message

    @pytest.mark.usefixtures("cold_memos")
    def test_request_timeout_answers_timeout_error(self):
        async def body():
            server = await started_server(request_timeout=0.05, max_delay=0.3)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(12, 2)
            await server.shutdown()
            return info.value

        assert run(body()).code == "timeout"


class TestBadRequests:
    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"type": "plan", "m": 2}, "n must be"),
            ({"type": "plan", "n": 1, "m": 2}, "n must be"),
            ({"type": "plan", "n": 8, "m": 0}, "m must be"),
            ({"type": "plan", "n": 8, "m": 2, "params": {"t_sq": -1}}, "t_sq"),
            ({"type": "plan", "n": 8, "m": 2, "params": {"bogus": 1}}, "unknown params"),
            ({"type": "frobnicate"}, "unknown request type"),
            ({"n": 8, "m": 2}, "unknown request type"),
        ],
    )
    def test_validation_failures_return_bad_request(self, payload, fragment):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                response = await client.request(payload)
            await server.shutdown()
            return response

        response = run(body())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert fragment in response["error"]["message"]

    def test_invalid_json_line(self):
        async def body():
            server = await started_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await server.shutdown()
            return json.loads(line)

        response = run(body())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestGracefulShutdown:
    @pytest.mark.usefixtures("cold_memos")
    def test_drain_answers_inflight_requests(self):
        async def body():
            # Requests park in a 200 ms batch window; shutdown must
            # flush and answer them, not drop them.
            server = await started_server(max_delay=0.2)
            client = await PlanClient.connect("127.0.0.1", server.port)
            pending = [
                asyncio.ensure_future(client.plan(n, 3)) for n in (6, 12, 18, 24)
            ]
            await asyncio.sleep(0.05)  # all admitted, none answered yet
            assert not any(task.done() for task in pending)
            await server.shutdown(drain=True)
            results = await asyncio.gather(*pending)
            await client.close()
            return results

        results = run(body())
        assert [r.n for r in results] == [6, 12, 18, 24]
        for result in results:
            assert result == plan(PlanRequest(n=result.n, m=3))

    @pytest.mark.usefixtures("cold_memos")
    def test_shutdown_gives_up_on_a_plan_that_outlives_drain_timeout(
        self, monkeypatch, caplog
    ):
        """A computation longer than ``drain_timeout`` used to leave
        ``shutdown()`` spinning on cancelled futures for ever."""
        gate, computing = threading.Event(), threading.Event()
        plan_chunk = batching.plan_chunk

        def gated(requests):
            computing.set()
            gate.wait(30)
            return plan_chunk(requests)

        monkeypatch.setattr(batching, "plan_chunk", gated)
        drain_timeout = 0.5

        async def body():
            server = await started_server(workers=1, drain_timeout=drain_timeout)
            client = await PlanClient.connect("127.0.0.1", server.port)
            pending = asyncio.ensure_future(client.plan(16, 4, timeout=30))
            while not computing.is_set():
                await asyncio.sleep(0.01)
            waiters = list(server.batcher._inflight.values())
            started = time.monotonic()
            try:
                await asyncio.wait_for(server.shutdown(), drain_timeout + 3)
            finally:
                gate.set()
            elapsed = time.monotonic() - started
            outcome = (await asyncio.gather(pending, return_exceptions=True))[0]
            await client.close()
            return elapsed, waiters, server.batcher._inflight, outcome

        with caplog.at_level(logging.ERROR):
            elapsed, waiters, inflight, outcome = run(body())
        assert elapsed < drain_timeout + 0.5
        assert waiters and all(waiter.done() for waiter in waiters)
        assert not inflight
        assert isinstance(outcome, ConnectionError)  # dropped, not hung
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        for thread in threading.enumerate():
            if thread.name.startswith("plan-worker"):
                thread.join(5)
                assert not thread.is_alive()

    def test_shutdown_is_idempotent(self):
        async def body():
            server = await started_server()
            await server.shutdown()
            await server.shutdown()

        run(body())


class TestRequestSpans:
    def test_every_handled_line_gets_one_span(self):
        from repro.obs import Tracer

        tracer = Tracer()

        async def body():
            server = await started_server(tracer=tracer)
            client = await PlanClient.connect("127.0.0.1", server.port)
            await client.plan(16, 4)
            await client.ping()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b'{"type": "plan", "id": "bad", "n": 1, "m": 0}\n')
            await writer.drain()
            error = json.loads(await reader.readline())
            writer.close()
            await client.close()
            await server.shutdown()
            return error

        error = run(body())
        assert error["ok"] is False
        spans = [e for e in tracer.events if e.ph == "X"]
        assert [e.cat for e in spans] == ["service"] * 3
        assert sorted(e.name for e in spans) == ["ping", "plan", "plan"]
        assert any(e.name == "plan" and e.args["ok"] for e in spans)
        assert any(e.name == "ping" and e.args["ok"] for e in spans)
        # The failed request still got a span, carrying its id and outcome.
        failed = [e for e in spans if e.args["ok"] is False]
        assert len(failed) == 1 and failed[0].args["id"] == "bad"
        assert all(e.dur >= 0 for e in spans)

    def test_untraced_server_records_nothing(self):
        async def body():
            server = await started_server()
            client = await PlanClient.connect("127.0.0.1", server.port)
            await client.ping()
            await client.close()
            await server.shutdown()
            return server

        server = run(body())
        assert server.tracer is None


class TestObservatory:
    def test_metrics_wire_request_scrapes_prometheus_text(self):
        from repro.obs import parse_prometheus

        async def body():
            server = await started_server(workers=2)
            client = await PlanClient.connect("127.0.0.1", server.port)
            for n in (8, 16, 32):
                await client.plan(n, 4)
            raw = await client.request({"type": "metrics"})
            text = await client.metrics()
            await client.close()
            await server.shutdown()
            return raw, text

        raw, text = run(body())
        assert raw["ok"] is True
        assert raw["content_type"] == "text/plain; version=0.0.4"
        # Scrapes are live — the first one bumps the requests counter —
        # so both must parse, and the counters must move monotonically.
        first = parse_prometheus(raw["metrics"])
        second = parse_prometheus(text)
        counter = "repro_service_counters_requests_total"
        assert second[counter].samples[0][2] == first[counter].samples[0][2] + 1
        families = parse_prometheus(text)  # strict: the scrape must be legal
        by_name = {}
        for family in families.values():
            for name, labels, value in family.samples:
                if not labels:
                    by_name[name] = value
        assert by_name["repro_service_counters_plans_total"] == 3.0
        assert by_name["repro_service_plan_latency_us_count"] == 3.0
        # The server publishes its own gauges while alive.
        assert "repro_server_max_inflight" in by_name
        assert "repro_server_draining" in by_name

    def test_metrics_remote_sync_wrapper(self):
        from repro.service import metrics_remote

        # The sync wrapper spins its own event loop, so call it from a
        # worker thread while the server's loop keeps running here.
        async def scenario():
            server = await started_server()
            text = await asyncio.get_running_loop().run_in_executor(
                None, metrics_remote, "127.0.0.1", server.port
            )
            await server.shutdown()
            return text

        text = run(scenario())
        assert "# TYPE" in text and "repro_cache" in text

    def test_health_report_carries_metrics_and_slo(self):
        from repro.obs import SLOSet

        slos = SLOSet(clock=lambda: 0.0)

        async def body():
            server = await started_server(slos=slos)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.plan(16, 4)
                health = await client.health()
            await server.shutdown()
            return health

        health = run(body())
        assert health["status"] == "ok"
        assert "cache" in health["metrics"] and "service" in health["metrics"]
        slo_snap = health["slo"]["slos"]
        assert slo_snap["plan_latency_p99"]["total_good"] >= 1.0
        assert slo_snap["request_errors"]["total_good"] >= 1.0
        assert health["slo"]["alerts"] == 0

    def test_error_responses_burn_the_error_budget(self):
        from repro.obs import SLOSet

        slos = SLOSet(clock=lambda: 0.0)

        async def body():
            server = await started_server(slos=slos)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.request({"type": "plan", "n": 1, "m": 2})  # bad
                await client.plan(8, 2)  # good
            await server.shutdown()

        run(body())
        tracker = slos.trackers["request_errors"]
        assert tracker._total_bad == 1.0
        assert tracker._total_good == 1.0

    def test_server_profiler_lifecycle(self):
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(hz=50.0, seed=0)

        async def body():
            server = await started_server(profiler=profiler)
            assert profiler._thread is not None  # started with the server
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.plan(16, 4)
            await server.shutdown()

        run(body())
        assert profiler._thread is None  # stopped with the server
        assert profiler.snapshot()["elapsed_s"] > 0

    def test_default_server_uses_the_null_profiler(self):
        from repro.obs import NULL_PROFILER

        async def body():
            server = await started_server()
            await server.shutdown()
            return server

        server = run(body())
        assert server.profiler is NULL_PROFILER
        assert server.slos is None


class TestShardIdentity:
    """Satellite regression: health must name the shard it came from."""

    def test_health_carries_shard_id_epoch_and_recovery(self):
        async def body():
            server = await started_server(shard_id=3, ring_epoch=2)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = await client.health()
            await server.shutdown()
            return health

        health = run(body())
        assert health["shard_id"] == 3
        assert health["ring_epoch"] == 2
        assert health["recovered_entries"] == 0  # no journal attached

    def test_plain_server_health_has_null_shard_identity(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = await client.health()
            await server.shutdown()
            return health

        health = run(body())
        assert health["shard_id"] is None
        assert health["ring_epoch"] == 0

    def test_shard_identified_metrics_carry_the_shard_label(self):
        from repro.obs import parse_prometheus

        async def body():
            server = await started_server(shard_id=5)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                await client.plan(16, 4)
                text = await client.metrics()
            await server.shutdown()
            return text

        families = parse_prometheus(run(body()))
        labels = {
            labels.get("shard")
            for family in families.values()
            for _, labels, _ in family.samples
        }
        assert labels == {"5"}
        gauge = families["repro_server_shard_id"]
        assert gauge.samples[0][2] == 5.0
