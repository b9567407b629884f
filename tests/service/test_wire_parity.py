"""Wire parity of the encode-once and byte-relay paths (service tier).

A plan answer is encoded once per computation and shared by every
waiter behind its own id, and the cluster router relays a shard's bytes
with only the id swapped.  These properties pin what that must not
change: every line the server writes and every line the router relays
is ``json.dumps(answer, separators=(",", ":")) + "\\n"`` of the answer
object, for any id, for ``plan`` and ``amend``; its result is
``plan()``'s ``to_dict`` without the schedule, with the machine's
ports, and expands into ``plan()``; a line naming ``"form": "compact"``
gets the same bytes as one naming no form; error answers keep their
codes, any other form is a ``bad_request``, and injected transient
errors still fail over; N concurrent waiters on one computation cost
one encode (one ``plan_compact_json`` call); and serving builds no
``NodePlan`` rows, calls no ``PlanResult.to_dict`` and leaves
``plan()``'s row memo empty.

The servers run on an event loop in a background thread for the whole
module; each example talks to them over plain blocking sockets, so the
bytes checked are the bytes on the wire.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, ShardSpec, plan_key
from repro.core import clear_caches
from repro.params import MachineParams
from repro.service import (
    NodePlan,
    PlanClient,
    PlanRequest,
    PlanResult,
    PlanServer,
    batching,
    plan,
)
from repro.service.planner import _schedule_rows

from .helpers import compact_result

pytestmark = pytest.mark.service

#: Request ids as clients send them: JSON ints, strings (non-ASCII
#: included), or null.
IDS = st.one_of(st.integers(-(2**64), 2**64), st.text(max_size=6), st.none())


@st.composite
def plan_keys(draw):
    """``(n, m, exclude)`` with n in [2, 300], m in [1, 32], >= 2 survivors."""
    n = draw(st.integers(2, 300))
    m = draw(st.integers(1, 32))
    exclude = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 2, 6)))
    return n, m, tuple(sorted(exclude))


@st.composite
def amend_deltas(draw, key):
    """``(join, leave)`` against ``key`` that leaves >= 2 survivors."""
    n, _, exclude = key
    join = draw(st.integers(0, 4))
    free = [p for p in range(1, n) if p not in exclude]
    leave = draw(st.sets(st.sampled_from(free), max_size=min(len(free) + join - 1, 4)))
    return join, tuple(sorted(leave))


def line(answer: dict) -> bytes:
    """The answer line, as ``json.dumps`` writes it."""
    return (json.dumps(answer, separators=(",", ":")) + "\n").encode()


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.lines = self.sock.makefile("rb")

    def ask(self, payload: dict) -> bytes:
        return self.send(json.dumps(payload).encode() + b"\n")

    def send(self, raw: bytes) -> bytes:
        self.sock.sendall(raw)
        return self.lines.readline()

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


class Services:
    """A standalone server and a 2-shard cluster on a background loop."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.run(self._start())
        self.server = Connection(self.single.port)
        self.router = Connection(self.cluster.port)

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    async def _start(self) -> None:
        # A 20 ms batch window lets concurrent identical requests meet.
        self.single = PlanServer(port=0, max_delay=0.02)
        self.shards = [PlanServer(port=0, shard_id=sid) for sid in range(2)]
        for server in [self.single, *self.shards]:
            await server.start()
        # No warm-ups, probes or evictions: every forward's route is
        # the ring's, and an injected fault meets exactly one forward.
        self.cluster = ClusterRouter(
            [ShardSpec(sid, "127.0.0.1", s.port) for sid, s in enumerate(self.shards)],
            port=0,
            hot_threshold=0,
            probe_interval=3600.0,
            fail_after=10**6,
        )
        await self.cluster.start()

    async def _stop(self) -> None:
        await self.cluster.shutdown()
        for server in [self.single, *self.shards]:
            await server.shutdown()

    def chain(self, n: int, m: int):
        return self.cluster.ring.chain(plan_key(n, m, MachineParams()), 2)

    def inject(self, server: PlanServer, code: str) -> None:
        async def arm():
            server.inject_fault(code, 1)

        self.run(arm())

    def planned(self) -> int:
        return sum(s.metrics.planned.value for s in [self.single, *self.shards])

    def close(self) -> None:
        self.server.close()
        self.router.close()
        self.run(self._stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def services():
    running = Services()
    yield running
    running.close()


def plan_payload(rid, n, m, exclude) -> dict:
    return {"type": "plan", "id": rid, "n": n, "m": m, "exclude": list(exclude)}


def amend_payload(rid, n, m, exclude, join, leave) -> dict:
    payload = plan_payload(rid, n, m, exclude)
    payload.update(type="amend", delta={"join": join, "leave": list(leave)})
    return payload


@settings(max_examples=25, deadline=None)
@given(key=plan_keys(), rid=IDS)
def test_plan_lines_are_the_seed_bytes(services, key, rid):
    n, m, exclude = key
    payload = plan_payload(rid, n, m, exclude)
    result = compact_result(PlanRequest(n=n, m=m, exclude=exclude))
    assert services.server.ask(payload) == line({"id": rid, "ok": True, "result": result})
    shard = services.chain(n, m)[0]
    assert services.router.ask(payload) == line(
        {"id": rid, "ok": True, "result": result, "shard": shard}
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data(), key=plan_keys(), rid=IDS)
def test_amend_lines_are_the_seed_bytes(services, data, key, rid):
    n, m, exclude = key
    join, leave = data.draw(amend_deltas(key))
    payload = amend_payload(rid, n, m, exclude, join, leave)
    folded = tuple(sorted(set(exclude) | set(leave)))
    result = compact_result(PlanRequest(n=n + join, m=m, exclude=folded))
    amended = {"n": n + join, "m": m, "exclude": list(folded)}
    assert services.server.ask(payload) == line(
        {"id": rid, "ok": True, "result": result, "amended": amended}
    )
    # The router has always answered an amend without the echo.
    shard = services.chain(n + join, m)[0]
    assert services.router.ask(payload) == line(
        {"id": rid, "ok": True, "result": result, "shard": shard}
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data(), key=plan_keys(), rid=IDS)
def test_compact_lines_expand_to_the_plan(services, data, key, rid):
    n, m, exclude = key
    join, leave = data.draw(amend_deltas(key))
    request = PlanRequest(n=n, m=m, exclude=exclude)
    folded = PlanRequest(n=n + join, m=m, exclude=tuple(sorted({*exclude, *leave})))
    echo = {"n": folded.n, "m": m, "exclude": list(folded.exclude)}
    for payload, want, extra in (
        (plan_payload(rid, n, m, exclude), request, {}),
        (amend_payload(rid, n, m, exclude, join, leave), folded, {"amended": echo}),
    ):
        shard = services.chain(want.n, m)[0]
        for hop, extra in ((services.server, extra), (services.router, {"shard": shard})):
            raw = hop.ask(dict(payload, form="compact"))
            assert raw == line({"id": rid, "ok": True, "result": compact_result(want), **extra})
            assert PlanResult.from_dict(json.loads(raw)["result"]) == plan(want)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), key=plan_keys(), rid=IDS, compact_first=st.booleans())
def test_form_less_and_compact_lines_get_the_same_bytes(services, data, key, rid, compact_first):
    """A line naming no form and one naming ``"form": "compact"`` are
    answered byte for byte alike, cold or warm, by the server and
    through the router."""
    n, m, exclude = key
    join, leave = data.draw(amend_deltas(key))
    clear_caches()  # the first of each pair is cold
    for payload in (plan_payload(rid, n, m, exclude), amend_payload(rid, n, m, exclude, join, leave)):
        for hop in (services.server, services.router):
            pair = [payload, dict(payload, form="compact")]
            if compact_first:
                pair.reverse()
            first, second = map(hop.ask, pair)
            assert first == second
            assert json.loads(first)["ok"] is True


@settings(max_examples=10, deadline=None)
@given(data=st.data(), key=plan_keys(), via=st.sampled_from(["server", "router"]))
def test_client_plans_and_amends_equal_plan(services, data, key, via):
    """Every client call asks compact and returns ``plan()``'s result."""
    n, m, exclude = key
    join, leave = data.draw(amend_deltas(key))
    port = services.single.port if via == "server" else services.cluster.port

    async def calls():
        async with await PlanClient.connect("127.0.0.1", port) as client:
            return (
                await client.plan(n, m, exclude=exclude, timeout=30),
                await client.amend(n, m, exclude=exclude, join=join, leave=leave, timeout=30),
            )

    planned, amended = asyncio.run(calls())
    assert planned == plan(PlanRequest(n=n, m=m, exclude=exclude))
    folded = tuple(sorted({*exclude, *leave}))
    assert amended == plan(PlanRequest(n=n + join, m=m, exclude=folded))


def assert_error(raw: bytes, rid, code: str) -> None:
    answer = json.loads(raw)
    assert raw == line(answer)
    assert answer["id"] == rid
    assert answer["ok"] is False
    assert answer["error"]["code"] == code


@settings(max_examples=15, deadline=None)
@given(key=plan_keys(), rid=IDS, kind=st.sampled_from(["plan", "amend"]))
def test_error_answers_keep_their_codes(services, key, rid, kind):
    n, m, exclude = key
    # n = 1 fails validation on both paths; so does an amend naming
    # an exclude position past n.
    bad = plan_payload(rid, 1, m, ()) if kind == "plan" else amend_payload(rid, n, m, (n,), 0, ())
    good = plan_payload(rid, n, m, exclude) if kind == "plan" else amend_payload(
        rid, n, m, exclude, 1, ()
    )
    for hop in (services.server, services.router):
        assert_error(hop.ask(bad), rid, "bad_request")
        source_left = amend_payload(rid, n, m, exclude, 0, (0,))
        assert_error(hop.ask(source_left), rid, "source_failed")
        for form in ("tree", "full", None, 1, ["compact"]):
            assert_error(hop.ask(dict(good, form=form)), rid, "bad_request")


@pytest.mark.parametrize("via", ["server", "router"])
def test_non_utf8_lines_are_bad_requests(services, via):
    """JSON text is UTF-8: a line that does not decode is the sender's
    error, not an internal one, and the connection keeps serving."""
    hop = getattr(services, via)
    for raw in (b"\x80\n", b'{"type":"ping","id":"\xc3"}\n'):
        assert_error(hop.send(raw), None, "bad_request")
    assert hop.ask({"type": "ping", "id": 1}) == line({"id": 1, "ok": True, "pong": True})


@settings(max_examples=15, deadline=None)
@given(key=plan_keys(), rid=IDS, code=st.sampled_from(["overloaded", "unavailable"]))
def test_injected_transient_errors_fail_over(services, key, rid, code):
    n, m, exclude = key
    payload = plan_payload(rid, n, m, exclude)
    services.inject(services.single, code)
    assert_error(services.server.ask(payload), rid, code)

    primary, replica = services.chain(n, m)
    failovers = services.cluster.failovers.value
    services.inject(services.shards[primary], code)
    result = compact_result(PlanRequest(n=n, m=m, exclude=exclude))
    assert services.router.ask(payload) == line(
        {"id": rid, "ok": True, "result": result, "shard": replica}
    )
    assert services.cluster.failovers.value == failovers + 1


@settings(max_examples=10, deadline=None)
@given(
    key=plan_keys(),
    waiters=st.integers(2, 12),
    via=st.sampled_from(["server", "router"]),
    amends=st.booleans(),
)
def test_concurrent_waiters_share_one_encode(services, key, waiters, via, amends):
    """Identical requests (and amends folding onto the same plan) that
    meet in one computation are encoded once for all of them."""
    n, m, exclude = key
    plain = {"type": "plan", "n": n + 1, "m": m, "exclude": list(exclude)}
    folded = {"type": "amend", "n": n, "m": m, "exclude": list(exclude), "delta": {"join": 1}}
    payloads = [folded if amends and i % 2 else plain for i in range(waiters)]
    port = services.single.port if via == "server" else services.cluster.port

    async def burst():
        async with await PlanClient.connect("127.0.0.1", port) as client:
            return await asyncio.gather(*(client.request_raw(p, timeout=30) for p in payloads))

    encodes = []
    plan_compact_json = batching.plan_compact_json

    def counted(request):
        encodes.append(request)
        return plan_compact_json(request)

    # An earlier example may have planned this key, and a warm key is
    # answered on the read loop without a computation to share.
    clear_caches()
    planned = services.planned()
    batching.plan_compact_json = counted
    try:
        lines = asyncio.run(burst())
    finally:
        batching.plan_compact_json = plan_compact_json
    computations = services.planned() - planned
    assert computations >= 1
    assert len(encodes) == computations

    expected = compact_result(PlanRequest(n=n + 1, m=m, exclude=exclude))
    for raw, payload in zip(lines, payloads):
        answer = json.loads(raw)
        assert raw == line(answer)
        assert answer["result"] == expected
        echoed = via == "server" and payload is folded
        assert ("amended" in answer) == echoed


@pytest.mark.parametrize("via", ["server", "router"])
def test_serving_builds_no_rows(services, monkeypatch, via):
    """A served burst of plans and amends comes from the compact memo alone."""
    payloads, expected = [], []
    for rid, (n, m, exclude) in enumerate([(64, 8, ()), (200, 16, (5, 77)), (33, 3, (1,))]):
        payloads.append(plan_payload(rid, n, m, exclude))
        expected.append(compact_result(PlanRequest(n=n, m=m, exclude=exclude)))
        payloads.append(amend_payload(rid, n, m, exclude, 2, (2,)))
        folded = tuple(sorted({*exclude, 2}))
        expected.append(compact_result(PlanRequest(n=n + 2, m=m, exclude=folded)))
    payloads, expected = payloads * 2, expected * 2  # repeats meet in single-flight
    port = services.single.port if via == "server" else services.cluster.port

    def refuse(*args, **kwargs):
        raise AssertionError("serving built a plan() result")

    monkeypatch.setattr(PlanResult, "to_dict", refuse)
    monkeypatch.setattr(NodePlan, "__init__", refuse)
    _schedule_rows.cache_clear()

    async def burst():
        async with await PlanClient.connect("127.0.0.1", port) as client:
            return await asyncio.gather(*(client.request_raw(p, timeout=30) for p in payloads))

    lines = asyncio.run(burst())
    assert _schedule_rows.cache_info().currsize == 0
    for raw, result in zip(lines, expected):
        answer = json.loads(raw)
        assert answer["ok"] is True, answer
        assert answer["result"] == result
