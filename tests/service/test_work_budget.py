"""Exact JSON, write and wait work of one scripted plan sequence (service tier).

A plan answer is filled from a memo of k and the schedule's shape, and
the cluster router relays a shard's answer bytes behind the client's
id, so the plan path's JSON work is countable exactly: one decode of
each request line on every process it enters, one re-encode of the
request on the router's forward to its shard, no encode of any plan
answer, and no decode of an id-first shard answer.  A warm plan and a
cold one-port plan are answered on the server's read callback, so the
path's waiting is countable too: on one port no request makes a
batcher submit or a task of the server's, cold or warm; on two ports
each cold request makes one of each and the warm repeat neither; and a
forward the router relays from its shard link's read callback makes no
task at all.  This test pins those counts, and the bytes each layer
writes, for five requests sent one at a time, on one port and on two:

* ``[server]`` — to one in-process :class:`PlanServer`;
* ``[router]`` — to a :class:`ClusterRouter` over two in-process shards.

Every answer is the compact (k, chain) form, about 150 bytes whatever
n is: the fill is the planner's, not the server's.  The same sequence
naming ``"form": "compact"`` on every line gets the same bytes and
costs the same decodes, encodes, submits, tasks and memo hits.

The ``json`` attribute of the server, router and client modules (the
client module carries the router's forward to a shard) is swapped for
a counting stand-in, :meth:`LineProtocol.write` is wrapped to count the
bytes each layer's connections write, :meth:`PlanBatcher.submit` is
wrapped to count calls, and a task factory on the loop counts the tasks
whose coroutine is the server's, and those whose coroutine is the
router's or the client module's.
The memos start empty, counting starts after start-up, the router
never warms keys (``hot_threshold=0``) or probes (an hour's interval),
and the requests come from a raw socket, so only the sequence's own
work is counted.  The one encode on the server is the amend's
``"amended"`` echo.  The byte budgets are the answer lines built from
in-process ``plan()``.
"""

from __future__ import annotations

import asyncio
import collections
import json
from dataclasses import replace

import pytest

from repro.cluster import ClusterRouter, ShardSpec, plan_key
from repro.cluster import router as router_module
from repro.core import MulticastTree, cache_stats, clear_caches, pipeline
from repro.params import MachineParams
from repro.service import PlanBatcher, PlanRequest, PlanServer, framing
from repro.service import client as client_module
from repro.service import planner as planner_module
from repro.service import server as server_module

from .helpers import compact_result

pytestmark = pytest.mark.service

#: (request, the plan that answers it, the server's amend echo), on the
#: paper's one-port machine.  The second request repeats the first, so
#: it is the one warm key.
SEQUENCE = [
    ({"type": "plan", "n": 64, "m": 8}, PlanRequest(n=64, m=8), None),
    ({"type": "plan", "n": 64, "m": 8}, PlanRequest(n=64, m=8), None),
    (
        {"type": "plan", "n": 512, "m": 32, "exclude": [3, 7]},
        PlanRequest(n=512, m=32, exclude=(3, 7)),
        None,
    ),
    (
        {"type": "amend", "n": 64, "m": 8, "delta": {"join": 2, "leave": [5]}},
        PlanRequest(n=66, m=8, exclude=(5,)),
        {"n": 66, "m": 8, "exclude": [5]},
    ),
    ({"type": "plan", "n": 8, "m": 2}, PlanRequest(n=8, m=2), None),
]

#: Per request, the batcher submits and the server's tasks, by ports: a
#: one-port plan is answered on the read callback, cold or warm; on two
#: ports the cold requests 1, 3, 4 and 5 wait for the executor.
WAITS = {1: [0, 0, 0, 0, 0], 2: [1, 0, 1, 1, 1]}


def sequence(ports: int):
    """:data:`SEQUENCE` on a machine with ``ports`` ports."""
    if ports == 1:
        return SEQUENCE
    params = MachineParams(ports=ports)
    return [
        (dict(payload, params={"ports": ports}), replace(request, params=params), echo)
        for payload, request, echo in SEQUENCE
    ]


class CountingJson:
    """Stands in for ``json`` inside one module, counting its calls."""

    def __init__(self, counts: dict) -> None:
        self._counts = counts

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, *args, **kwargs):
        self._counts["decodes"] += 1
        return json.loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        self._counts["encodes"] += 1
        return json.dumps(*args, **kwargs)


def count_work(monkeypatch, owners: dict) -> dict:
    """Install the counters; return the live counts by layer.

    ``owners`` maps a layer to the servers (or router) whose accepted
    connections' writes it counts.
    """
    work = {
        "server": {"decodes": 0, "encodes": 0, "bytes": 0},
        "router": {"decodes": 0, "encodes": 0, "bytes": 0},
        "hop": {"decodes": 0, "encodes": 0},
    }
    for layer, module in (
        ("server", server_module),
        ("router", router_module),
        ("hop", client_module),
    ):
        monkeypatch.setattr(module, "json", CountingJson(work[layer]))

    write = framing.LineProtocol.write

    def counted(connection, data):
        for layer, servers in owners.items():
            if any(connection in server._connections for server in servers):
                work[layer]["bytes"] += len(data)
        write(connection, data)

    monkeypatch.setattr(framing.LineProtocol, "write", counted)
    return work


def count_waits(monkeypatch, loop) -> dict:
    """Count batcher submits, the server's tasks and the forward path's
    tasks; return the live counts."""
    forward_files = (router_module.__file__, client_module.__file__)
    waits = {"submits": 0, "tasks": 0, "forward_tasks": 0}
    submit = PlanBatcher.submit

    async def counted_submit(batcher, request):
        waits["submits"] += 1
        return await submit(batcher, request)

    monkeypatch.setattr(PlanBatcher, "submit", counted_submit)

    def task_factory(loop, coro, **kwargs):
        code = getattr(coro, "cr_code", None)
        if code is not None and code.co_filename == server_module.__file__:
            waits["tasks"] += 1
        if code is not None and code.co_filename in forward_files:
            waits["forward_tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(task_factory)
    return waits


def answer_line(rid, request: PlanRequest, **extra) -> bytes:
    answer = {"id": rid, "ok": True, "result": compact_result(request), **extra}
    return (json.dumps(answer, separators=(",", ":")) + "\n").encode()


async def run_sequence(via: str, monkeypatch, ports: int, form=None):
    """``(work, per-request waits, answers, the shard each request routes
    to, the shards' plan counters)`` of :func:`sequence` ``(ports)``;
    ``form`` goes on every line."""
    steps = sequence(ports)
    clear_caches()
    shards = [PlanServer(port=0, shard_id=sid) for sid in range(2 if via == "router" else 1)]
    for shard in shards:
        await shard.start()
    router = None
    port = shards[0].port
    if via == "router":
        router = ClusterRouter(
            [ShardSpec(sid, "127.0.0.1", s.port) for sid, s in enumerate(shards)],
            port=0,
            hot_threshold=0,
            probe_interval=3600.0,
        )
        await router.start()
        port = router.port
    work = count_work(monkeypatch, {"server": shards, "router": [router] if router else []})
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=framing.MAX_FRAME_BYTES
    )
    waits = count_waits(monkeypatch, asyncio.get_running_loop())
    answers = []
    per_request = {"submits": [], "tasks": [], "forward_tasks": []}
    for rid, (payload, _, _) in enumerate(steps, 1):
        before = dict(waits)
        if form is not None:
            payload = dict(payload, form=form)
        writer.write(json.dumps(dict(payload, id=rid)).encode() + b"\n")
        await writer.drain()
        answers.append(await reader.readline())
        for name, series in per_request.items():
            series.append(waits[name] - before[name])
    asyncio.get_running_loop().set_task_factory(None)
    work = {layer: dict(counts) for layer, counts in work.items()}
    per_request["memo_hits"] = sum(shard.metrics.memo_hits.value for shard in shards)
    counters = {
        name: sum(getattr(shard.metrics, name).value for shard in shards)
        for name in ("plans", "memo_hits", "planned", "singleflight_hits")
    }
    routes = [
        router.ring.chain(plan_key(r.n, r.m, r.params), router.replication)[0]
        if router else None
        for _, r, _ in steps
    ]
    writer.close()
    if router is not None:
        await router.shutdown()
    for shard in shards:
        await shard.shutdown()
    return work, per_request, answers, routes, counters


def expected_lines(routes, routed: bool, ports: int):
    """The shards' answer lines and the router's, from in-process ``plan()``.

    The router names the shard and has always dropped an amend's echo.
    Each of its shard connections spent id 1 on the start-up configure,
    so the forwards on it are numbered from 2.
    """
    forward_ids = collections.Counter()
    server_lines, router_lines = [], []
    for rid, ((_, request, echo), shard) in enumerate(zip(sequence(ports), routes), 1):
        amended = {} if echo is None else {"amended": echo}
        if routed:
            forward_ids[shard] += 1
            server_lines.append(answer_line(forward_ids[shard] + 1, request, **amended))
            router_lines.append(answer_line(rid, request, shard=shard))
        else:
            server_lines.append(answer_line(rid, request, **amended))
    return server_lines, router_lines


def check_sequence(monkeypatch, via: str, ports: int, form=None) -> None:
    """Run :func:`sequence` ``(ports)`` and hold it to its budgets."""
    work, waits, answers, routes, counters = asyncio.run(
        run_sequence(via, monkeypatch, ports, form)
    )
    routed = via == "router"
    server_lines, router_lines = expected_lines(routes, routed, ports)
    assert answers == (router_lines if routed else server_lines)
    # 512 x 32 with two positions excluded: 49.8 KB with every row.
    assert max(map(len, server_lines)) < 256
    assert work == {
        "server": {"decodes": 5, "encodes": 1, "bytes": sum(map(len, server_lines))},
        "router": {"decodes": 5 * routed, "encodes": 0, "bytes": sum(map(len, router_lines))},
        "hop": {"decodes": 0, "encodes": 5 * routed},
    }
    # The repeat of request 1 is a memo hit in the read callback; the
    # cold keys wait only on two ports.  The router relays every answer
    # from its shard link's read callback.
    assert waits == {
        "submits": WAITS[ports],
        "tasks": WAITS[ports],
        "forward_tasks": [0, 0, 0, 0, 0],
        "memo_hits": 1,
    }
    assert counters == {"plans": 5, "memo_hits": 1, "planned": 4, "singleflight_hits": 0}


@pytest.mark.parametrize("via", ["server", "router"])
def test_plan_sequence_work_budget(monkeypatch, via):
    """On one port nothing waits: no submit and no task, cold or warm."""
    check_sequence(monkeypatch, via, ports=1)


@pytest.mark.parametrize("via", ["server", "router"])
def test_two_port_sequence_work_budget(monkeypatch, via):
    """On two ports each cold request makes one submit and one task."""
    check_sequence(monkeypatch, via, ports=2)


@pytest.mark.parametrize("via", ["server", "router"])
def test_compact_sequence_work_budget(monkeypatch, via):
    """Naming the form changes nothing, on either machine."""
    for ports in (1, 2):
        with monkeypatch.context() as patches:
            check_sequence(patches, via, ports, form="compact")


def test_cold_plan_reads_step_lists_not_the_pair_dict(monkeypatch):
    """A cold plan never builds ``fpfs_schedule``'s dict of n·m
    ``(node, packet)`` pairs: on one port it runs the O(n) first/last
    pass and no ``fpfs_steps`` at all, on two one per-node step pass."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    schedule = counted("fpfs_schedule", pipeline.fpfs_schedule)
    for module in (pipeline, planner_module):
        monkeypatch.setattr(module, "fpfs_schedule", schedule, raising=False)
    monkeypatch.setattr(planner_module, "fpfs_steps", counted("fpfs_steps", pipeline.fpfs_steps))
    passes = {}
    for ports in (1, 2):
        clear_caches()
        calls.clear()
        planner_module.plan_compact_json(
            PlanRequest(n=512, m=32, params=MachineParams(ports=ports))
        )
        passes[ports] = dict(calls)
    assert passes == {1: {}, 2: {"fpfs_steps": 1}}


@pytest.mark.parametrize("n, m", [(512, 32), (131072, 1)])
def test_cold_one_port_plan_builds_no_tree(monkeypatch, n, m):
    """A cold one-port compact plan reads its shape from Fig. 11's
    segment sizes alone: it builds no tree (no ``build_kbinomial_tree``,
    no :class:`MulticastTree` at all) and runs no first/last pass.  A
    cold two-port plan still builds its tree and runs one step pass:
    the multi-port path is the tree's."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_kbinomial_tree", "fpfs_first_last", "fpfs_steps"):
        monkeypatch.setattr(planner_module, name, counted(name, getattr(planner_module, name)))
    monkeypatch.setattr(MulticastTree, "__init__", counted("trees", MulticastTree.__init__))
    passes = {}
    for ports in (1, 2):
        clear_caches()
        calls.clear()
        request = PlanRequest(n=n, m=m, params=MachineParams(ports=ports))
        planner_module.plan_compact_json(request)
        passes[ports] = dict(calls)
        assert cache_stats()["build_kbinomial_tree"].currsize == 0
    assert passes == {1: {}, 2: {"build_kbinomial_tree": 1, "trees": 1, "fpfs_steps": 1}}


def test_warm_plans_are_answered_inline_at_any_n(monkeypatch):
    """A warm plan is answered on the read callback whatever its n: a
    compact answer has no rows to fill.  A request that keeps the same
    survivors (``n - |exclude|``) is warm too, and naming the form
    changes nothing.  The plans are two-port ones, so that the cold
    keys among them make a batcher submit each."""
    big = {"type": "plan", "n": 4096, "m": 2, "params": {"ports": 2}}
    lines = [
        big,
        big,
        dict(big, form="compact"),
        dict(big, n=4097, exclude=[5]),
        dict(big, n=4097),
        dict(big, n=4097, form="compact"),
    ]

    async def body():
        clear_caches()
        server = PlanServer(port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port, limit=framing.MAX_FRAME_BYTES
        )
        waits = count_waits(monkeypatch, asyncio.get_running_loop())
        submits, answers = [], []
        for rid, payload in enumerate(lines, 1):
            before = waits["submits"]
            writer.write(json.dumps(dict(payload, id=rid)).encode() + b"\n")
            await writer.drain()
            answers.append(await reader.readline())
            submits.append(waits["submits"] - before)
        asyncio.get_running_loop().set_task_factory(None)
        writer.close()
        await server.shutdown()
        return submits, answers

    submits, answers = asyncio.run(body())
    assert submits == [1, 0, 0, 0, 1, 0]
    for rid, (payload, answer) in enumerate(zip(lines, answers), 1):
        exclude = tuple(payload.get("exclude", ()))
        request = PlanRequest(payload["n"], 2, MachineParams(ports=2), exclude)
        assert answer == answer_line(rid, request)
