"""One pipelined connection: every line answered once, in its own terms (service tier).

Each example writes 1-40 request lines back to back on one connection,
then a ``ping``, and reads every answer.  The lines mix warm plans (keys
planned just before the burst), cold plans, cold two-port plans (some
repeating an earlier two-port key), duplicates of earlier keys, amends
(some naming the source), plans over ``max_n`` and over
:data:`~repro.service.planner.MAX_PLAN_WORK`, a stale epoch after a
``configure``, non-JSON garbage, a JSON non-object and blank lines;
each plan and amend names ``"form": "compact"`` or no form, which are
the same request.
Every one-port plan, warm or cold, is answered on the server's read
loop, and a cold two-port one in the executor, so one burst's answers
come back in an order the example does not fix.  Whatever the order:

* each id gets exactly one answer, each garbage line one with a null
  id, and a blank line none;
* an ok answer is byte-equal to the line built from in-process
  ``plan()`` (without the schedule, with the machine's ports), an
  amend's with its ``"amended"`` echo;
* an error answer carries its typed code;
* the final ``ping`` is answered;
* over the burst, ``plans == memo_hits + planned + singleflight_hits``;
* over the burst, ``batches`` (executor hops) equals the number of
  distinct two-port keys: no one-port line reaches the executor;
* over the burst, ``errors`` counts the error answers.

The same holds through a :class:`ClusterRouter` for the plan, amend,
oversize and garbage lines (a router takes no ``configure``): its ok
answers name the owning shard, and the shards' counters reconcile.
A third property pipelines twin lines, each plan or amend once with no
form and once naming ``"compact"`` under the same id, and checks that
both get the same bytes, from the server and through the router.

The servers run on an event loop in a background thread for the whole
module, and each example talks to them over a plain blocking socket.
Every example starts from empty memos, so its cold keys are cold.
"""

from __future__ import annotations

import asyncio
import collections
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, ShardSpec, plan_key
from repro.core import clear_caches
from repro.membership.amend import amended_request
from repro.params import MachineParams
from repro.service import PlanRequest, PlanServer
from repro.service.planner import MAX_PLAN_WORK

from .helpers import compact_result

pytestmark = pytest.mark.service

#: ``max_n`` of every server and of the router.
MAX_N = 200
#: Keys planned just before each burst: ``(n, m, exclude)``.
WARM = [(16, 4, ()), (64, 8, (3,)), (40, 2, ())]
#: Lines that are not a request object, and what each is answered with.
GARBAGE = [b"not json", b"[1, 2]", b'"text"', b"", b"   "]
#: The counters the reconciliation reads.
COUNTERS = ("plans", "memo_hits", "planned", "singleflight_hits", "batches", "errors")
#: The ``params`` of a two-port line: its cold plans go to the executor.
TWO = {"ports": 2}


def line(answer: dict) -> bytes:
    return (json.dumps(answer, separators=(",", ":")) + "\n").encode()


class Services:
    """A standalone server and a 2-shard cluster on a background loop."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self._start(), self.loop).result(60)

    async def _start(self) -> None:
        self.single = PlanServer(port=0, max_n=MAX_N)
        self.shards = [PlanServer(port=0, shard_id=sid, max_n=MAX_N) for sid in range(2)]
        for server in [self.single, *self.shards]:
            await server.start()
        self.cluster = ClusterRouter(
            [ShardSpec(sid, "127.0.0.1", s.port) for sid, s in enumerate(self.shards)],
            port=0,
            hot_threshold=0,
            probe_interval=3600.0,
            fail_after=10**6,
            max_n=MAX_N,
        )
        await self.cluster.start()

    async def _stop(self) -> None:
        await self.cluster.shutdown()
        for server in [self.single, *self.shards]:
            await server.shutdown()

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self._stop(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def services():
    running = Services()
    yield running
    running.close()


@st.composite
def cold_keys(draw):
    n = draw(st.integers(2, 96))
    m = draw(st.integers(1, 8))
    exclude = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 2, 3)))
    return n, m, tuple(sorted(exclude))


#: What a plan or amend line may add: the one answer form, or nothing.
forms = st.sampled_from([{}, {"form": "compact"}])


@st.composite
def bursts(draw, routed: bool):
    """``[(kind, payload)]``: a dict payload gets its id later, bytes go raw."""
    kinds = ["warm", "cold", "cold2", "dup", "amend", "over_n", "over_work", "garbage"]
    if not routed:
        kinds.append("stale")
    keys, keys2 = [], []
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=40)):
        if kind == "cold2":
            if keys2 and draw(st.booleans()):
                n, m = draw(st.sampled_from(keys2))
            else:
                n, m = draw(st.integers(2, 96)), draw(st.integers(1, 8))
            keys2.append((n, m))
            payload = {"type": "plan", "n": n, "m": m, "exclude": [], "params": TWO}
            out.append(("plan", dict(payload, **draw(forms))))
        elif kind == "garbage":
            out.append(("garbage", draw(st.sampled_from(GARBAGE))))
        elif kind == "over_n":
            out.append(("bad_request", {"type": "plan", "n": MAX_N + 1, "m": 1}))
        elif kind == "over_work":
            m = MAX_PLAN_WORK // 64 + 1
            out.append(("bad_request", {"type": "plan", "n": 64, "m": m}))
        elif kind == "stale":
            out.append(("stale", {"type": "plan", "n": 16, "m": 4}))
        elif kind == "amend":
            n, m, exclude = draw(st.sampled_from(WARM) | cold_keys())
            join = draw(st.integers(0, 2))
            free = [p for p in range(n) if p not in exclude]  # 0 is the source
            survivors = n + join - len(exclude)
            leave = draw(st.sets(st.sampled_from(free), max_size=min(2, survivors - 2)))
            payload = {
                "type": "amend",
                "n": n,
                "m": m,
                "exclude": list(exclude),
                "delta": {"join": join, "leave": sorted(leave)},
            }
            out.append(("amend", dict(payload, **draw(forms))))
        else:
            if kind == "warm":
                key = draw(st.sampled_from(WARM))
            elif kind == "dup" and keys:
                key = draw(st.sampled_from(keys))
            else:
                key = draw(cold_keys())
            keys.append(key)
            n, m, exclude = key
            payload = {"type": "plan", "n": n, "m": m, "exclude": list(exclude)}
            out.append(("plan", dict(payload, **draw(forms))))
    return out


def owner(services: Services, request: PlanRequest) -> int:
    key = plan_key(request.n, request.m, request.params)
    return services.cluster.ring.chain(key, services.cluster.replication)[0]


def expectation(services: Services, kind: str, payload: dict, routed: bool):
    """The answer line an ok request must get, or the error code it must carry."""
    if kind == "plan":
        params = MachineParams.from_dict(payload.get("params", {}))
        request = PlanRequest(payload["n"], payload["m"], params, tuple(payload["exclude"]))
        extra = {}
    elif kind == "amend":
        delta = payload["delta"]
        if 0 in delta["leave"]:
            return "source_failed"
        request = amended_request(
            payload["n"],
            payload["m"],
            None,
            tuple(payload["exclude"]),
            join=delta["join"],
            leave=tuple(delta["leave"]),
        )
        extra = {
            "amended": {"n": request.n, "m": request.m, "exclude": list(request.exclude)}
        }
    else:
        return kind
    if routed:
        extra = {"shard": owner(services, request)}
    return line({"id": payload["id"], "ok": True, "result": compact_result(request), **extra})


def counters(servers) -> collections.Counter:
    total = collections.Counter()
    for server in servers:
        for name in COUNTERS:
            total[name] += getattr(server.metrics, name).value
    return total


def run_burst(services: Services, burst, routed: bool) -> None:
    port = services.cluster.port if routed else services.single.port
    servers = services.shards if routed else [services.single]
    clear_caches()
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    answers = sock.makefile("rb")
    try:
        for rid, (n, m, exclude) in enumerate(WARM):
            payload = {"type": "plan", "id": rid, "n": n, "m": m, "exclude": list(exclude)}
            sock.sendall(json.dumps(payload).encode() + b"\n")
            assert json.loads(answers.readline())["ok"] is True

        raw, expected, garbage = [], {}, 0
        epoch = services.single.ring_epoch
        for rid, (kind, payload) in enumerate(burst):
            if kind == "garbage":
                raw.append(payload)
                garbage += bool(payload.strip())
                continue
            payload = dict(payload, id=rid)
            if kind == "stale":
                epoch += 1
                configure = {"type": "configure", "id": f"c{rid}", "ring_epoch": epoch}
                raw.append(json.dumps(configure).encode())
                expected[configure["id"]] = line(
                    {
                        "id": configure["id"],
                        "ok": True,
                        "configured": {"shard_id": None, "ring_epoch": epoch},
                    }
                )
                payload["epoch"] = epoch - 1
                kind = "stale_map"
            raw.append(json.dumps(payload).encode())
            expected[rid] = expectation(services, kind, payload, routed)
        expected["end"] = line({"id": "end", "ok": True, "pong": True})
        raw.append(b'{"type": "ping", "id": "end"}')

        before = counters(servers)
        router_errors = services.cluster.errors.value
        sock.sendall(b"\n".join(raw) + b"\n")
        got = [answers.readline() for _ in range(len(expected) + garbage)]
    finally:
        answers.close()
        sock.close()

    by_id = collections.defaultdict(list)
    for answer in got:
        by_id[json.loads(answer)["id"]].append(answer)
    assert len(by_id.pop(None, [])) == garbage
    assert sorted(map(str, by_id)) == sorted(map(str, expected))
    errors = garbage
    for rid, want in expected.items():
        [answer] = by_id[rid]
        if isinstance(want, bytes):
            assert answer == want
            continue
        decoded = json.loads(answer)
        assert answer == line(decoded)
        assert decoded["ok"] is False
        assert decoded["error"]["code"] == want
        errors += 1

    delta = counters(servers) - before
    assert delta["plans"] == delta["memo_hits"] + delta["planned"] + delta["singleflight_hits"]
    two_port = {(p["n"], p["m"]) for kind, p in burst if kind == "plan" and "params" in p}
    assert delta["batches"] == len(two_port)
    if routed:
        assert services.cluster.errors.value - router_errors == errors
        assert delta["errors"] == 0
    else:
        assert delta["errors"] == errors


@settings(max_examples=20, deadline=None)
@given(burst=bursts(routed=False))
def test_pipelined_server_answers_every_line(services, burst):
    run_burst(services, burst, routed=False)


@settings(max_examples=10, deadline=None)
@given(burst=bursts(routed=True))
def test_pipelined_router_answers_every_line(services, burst):
    run_burst(services, burst, routed=True)


@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    keys=st.lists(st.sampled_from(WARM) | cold_keys(), min_size=1, max_size=8),
    routed=st.booleans(),
)
def test_form_less_and_compact_twins_get_the_same_bytes(services, data, keys, routed):
    """Each plan or amend goes out twice under one id, back to back in
    one pipelined burst: once naming no form and once naming
    ``"compact"``, in a drawn order.  Both twins get the one answer
    line in-process ``plan()`` gives, on the read loop: the first line
    of a cold key computes it, and the rest are memo hits."""
    port = services.cluster.port if routed else services.single.port
    clear_caches()
    raw, expected = [], collections.Counter()
    for rid, (n, m, exclude) in enumerate(keys):
        payload = {"type": "plan", "id": rid, "n": n, "m": m, "exclude": list(exclude)}
        kind = "plan"
        if data.draw(st.booleans()):
            payload.update(type="amend", delta={"join": 1, "leave": []})
            kind = "amend"
        twins = [payload, dict(payload, form="compact")]
        if data.draw(st.booleans()):
            twins.reverse()
        raw += [json.dumps(twin).encode() for twin in twins]
        expected[expectation(services, kind, payload, routed)] += 2
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    answers = sock.makefile("rb")
    try:
        sock.sendall(b"\n".join(raw) + b"\n")
        got = collections.Counter(answers.readline() for _ in raw)
    finally:
        answers.close()
        sock.close()
    assert got == expected
