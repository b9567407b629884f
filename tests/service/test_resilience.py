"""Service resilience: retries, typed failures, health, fault injection.

Covers the failure-aware half of the service layer: the client's
:class:`RetryPolicy` backoff, typed errors for every transport failure
(connection refused is ``unavailable``, a blown deadline is
:class:`PlanTimeoutError` — never a raw ``OSError``), the server's
health endpoint and injectable fault mode, and ``exclude`` re-planning
over the wire.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.params import MachineParams
from repro.service import (
    PlanClient,
    PlanRequest,
    PlanServer,
    PlanServiceError,
    PlanTimeoutError,
    RetryPolicy,
    plan,
)
from repro.service.client import RETRYABLE_CODES

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


async def started_server(**kwargs) -> PlanServer:
    server = PlanServer(port=0, **kwargs)
    await server.start()
    return server


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: Fast backoff for tests: three attempts, sub-millisecond sleeps.
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.01)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_replayable(self):
        policy = RetryPolicy(attempts=5, seed=7)
        assert list(policy.delays()) == list(policy.delays())
        assert list(policy.delays()) != list(RetryPolicy(attempts=5, seed=8).delays())

    def test_delays_grow_and_stay_within_the_envelope(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.05, multiplier=2.0, max_delay=0.3, jitter=0.5
        )
        delays = list(policy.delays())
        assert len(delays) == 5  # one fewer than attempts
        for attempt, delay in enumerate(delays):
            raw = min(0.05 * 2.0**attempt, 0.3)
            # Jitter backs off the full delay, never extends it.
            assert raw * 0.5 <= delay <= raw

    def test_no_jitter_is_pure_exponential(self):
        delays = list(RetryPolicy(attempts=4, base_delay=0.1, jitter=0.0).delays())
        assert delays == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(attempts=0),
            dict(base_delay=-0.1),
            dict(multiplier=0.5),
            dict(jitter=1.5),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_retryable_codes_cover_the_transient_failures(self):
        assert RETRYABLE_CODES == {"overloaded", "timeout", "unavailable"}


class TestTypedFailures:
    def test_connection_refused_is_unavailable_not_oserror(self):
        async def body():
            with pytest.raises(PlanServiceError) as info:
                await PlanClient.connect("127.0.0.1", free_port())
            return info.value

        error = run(body())
        assert not isinstance(error, OSError)
        assert error.code == "unavailable"
        assert error.code in RETRYABLE_CODES

    @pytest.mark.usefixtures("cold_memos")
    def test_client_deadline_raises_plan_timeout_error(self, plan_gate):
        async def body():
            # The gate holds the two-port plan in the executor past the deadline.
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanTimeoutError) as info:
                    await client.plan(12, 2, MachineParams(ports=2), timeout=0.05)
            plan_gate.open()
            await server.shutdown()
            return info.value

        assert run(body()).code == "timeout"


class TestHealthEndpoint:
    def test_healthy_server_reports_ok(self):
        async def body():
            server = await started_server(max_inflight=32)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = await client.health()
            await server.shutdown()
            return health

        health = run(body())
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        assert health["max_inflight"] == 32
        assert health["fault_mode"] is None

    def test_fault_mode_is_visible_in_health(self):
        async def body():
            server = await started_server()
            server.inject_fault("unavailable", count=3)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                health = await client.health()
            await server.shutdown()
            return health

        assert run(body())["fault_mode"] == "unavailable"


class TestFaultInjection:
    def test_injected_faults_consume_then_clear(self):
        async def body():
            server = await started_server()
            server.inject_fault("unavailable", count=2)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                failures = []
                for _ in range(2):
                    with pytest.raises(PlanServiceError) as info:
                        await client.plan(16, 4)
                    failures.append(info.value.code)
                result = await client.plan(16, 4)  # mode exhausted
            await server.shutdown()
            return failures, result

        failures, result = run(body())
        assert failures == ["unavailable", "unavailable"]
        assert result == plan(PlanRequest(n=16, m=4))

    def test_retry_rides_out_injected_faults(self):
        async def body():
            server = await started_server()
            server.inject_fault("unavailable", count=2)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                result = await client.plan(16, 4, retry=FAST_RETRY)
            health = server.health_report()
            await server.shutdown()
            return result, health

        result, health = run(body())
        assert result == plan(PlanRequest(n=16, m=4))
        assert health["fault_mode"] is None  # both injected failures consumed

    def test_retry_gives_up_after_attempts(self):
        async def body():
            server = await started_server()
            server.inject_fault("overloaded", count=10)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(16, 4, retry=FAST_RETRY)
            await server.shutdown()
            return info.value

        assert run(body()).code == "overloaded"

    def test_non_retryable_faults_fail_fast(self):
        async def body():
            server = await started_server()
            server.inject_fault("internal", count=1)
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(16, 4, retry=FAST_RETRY)
                result = await client.plan(16, 4)
            await server.shutdown()
            return info.value, result

        error, result = run(body())
        assert error.code == "internal"
        # Only the single injected fault was consumed: no blind retries.
        assert result == plan(PlanRequest(n=16, m=4))

    def test_injection_validates_arguments(self):
        server = PlanServer(port=0)
        with pytest.raises(ValueError, match="count"):
            server.inject_fault("unavailable", count=-1)
        with pytest.raises(ValueError, match="delay"):
            server.inject_fault("unavailable", delay=-1.0)

    def test_count_zero_clears_the_mode(self):
        server = PlanServer(port=0)
        server.inject_fault("unavailable", count=3)
        server.inject_fault("unavailable", count=0)
        assert server.health_report()["fault_mode"] is None


class TestExcludeOverTheWire:
    def test_exclude_matches_local_plan(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                result = await client.plan(16, 4, exclude=(3, 5))
            await server.shutdown()
            return result

        result = run(body())
        assert result == plan(PlanRequest(n=16, m=4, exclude=(3, 5)))
        assert result.excluded == (3, 5)
        scheduled = {row.node for row in result.schedule}
        assert scheduled == set(range(16)) - {3, 5}

    def test_invalid_exclude_is_a_bad_request(self):
        async def body():
            server = await started_server()
            async with await PlanClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(PlanServiceError) as info:
                    await client.plan(16, 4, exclude=(0,))  # the source
            await server.shutdown()
            return info.value

        assert run(body()).code == "bad_request"
