"""Per-layer probes for the benchmark's traced rounds.

Every probe wraps a layer entry point from outside the program: a class
attribute, a module attribute or a registry entry is swapped for a
counting or timing wrapper, and :meth:`Patches.restore` puts the
original back.  Nothing under ``src/`` knows the probes exist, so an
untraced round runs the program exactly as shipped.

Counts are exact (``Environment.schedule`` calls, NI transmissions,
channel acquisitions ...) and repeat bit-for-bit on the same inputs.
Times are host seconds from ``time.perf_counter``; coarse ones are also
recorded as spans on a wall-clock :class:`repro.obs.Tracer`, so a
traced round exports a Perfetto timeline of the same numbers.
"""

from __future__ import annotations

import json
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from functools import partial
from typing import Dict, Optional

_perf = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo = []

    def set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            old, put = owner[name], owner.__setitem__
        else:
            old, put = vars(owner)[name], partial(setattr, owner)
        put(name, value)
        self._undo.append(lambda: put(name, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Stats:
    """Calls, host seconds and bytes per probe name, plus span storage.

    :meth:`add` may be called from the plan-worker threads too, so it
    takes a lock; the single-threaded simulation probes bump
    :attr:`counts` directly.
    """

    def __init__(self, tracer=None) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.tracer = tracer
        self.lock = threading.Lock()

    def add(self, name: str, seconds: float, nbytes: int = 0, calls: int = 1) -> None:
        with self.lock:
            self.counts[name] += calls
            self.seconds[name] += seconds
            self.bytes[name] += nbytes

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "counts": dict(self.counts),
                "seconds": dict(self.seconds),
                "bytes": dict(self.bytes),
            }


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def delta(after: dict, before: dict) -> dict:
    """Field-wise ``after - before`` of two :meth:`Stats.snapshot` dicts."""
    return {
        field: {
            name: value - before.get(field, {}).get(name, 0)
            for name, value in values.items()
        }
        for field, values in after.items()
    }


def counted(stats: Stats, name: str, fn):
    def wrapper(*args, **kwargs):
        stats.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def timed(stats: Stats, name: str, fn, track=None):
    def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stats.add(name, end - start)
            if track is not None:
                stats.tracer.complete(name, track, start * 1e6, end * 1e6, cat="layer")

    return wrapper


def timed_async(stats: Stats, name: str, fn, track=None):
    """Like :func:`timed` for a coroutine; its spans overlap, so they are
    filed as ``async`` and laid out in lanes by :func:`trace_events`."""

    async def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = _perf()
            stats.add(name, end - start)
            if track is not None:
                stats.tracer.complete(name, track, start * 1e6, end * 1e6, cat="async")

    return wrapper


# ---------------------------------------------------------------------------
# Simulation side
# ---------------------------------------------------------------------------


class FabricTally:
    """Keeps every fabric a simulator builds, to count its work after the run.

    Wraps ``MulticastSimulator._build_network`` (which sessions and the
    isolated-baseline oracle share), so deliveries, channel acquisitions
    and blocked time cover every simulated multicast of an operation.
    """

    def __init__(self) -> None:
        self.fabrics = []

    def wrap(self, build):
        def _build_network(simulator):
            fabric = build(simulator)
            self.fabrics.append(fabric)
            return fabric

        return _build_network

    def take(self):
        """``(deliveries, acquisitions, blocked sim µs)`` since the last take."""
        deliveries = acquisitions = 0
        blocked = 0.0
        for _env, _trace, pool, registry in self.fabrics:
            deliveries += sum(len(ni.received_at) for ni in registry)
            acquisitions += sum(pool.acquisitions.values())
            blocked += pool.total_blocked_time
        self.fabrics.clear()
        return deliveries, acquisitions, blocked


def install_fabric_tally(patches: Patches, tally: FabricTally) -> None:
    from repro.mcast.simulator import MulticastSimulator

    patches.set(
        MulticastSimulator, "_build_network", tally.wrap(MulticastSimulator._build_network)
    )


def install_sim_probes(patches: Patches, stats: Stats, tree_owner) -> None:
    """Count kernel/NI/network work and time the mcast stages and tree builds.

    ``tree_owner`` is the benchmark module whose ``build_kbinomial_tree``
    attribute the broadcast workload calls; sessions build their trees
    through ``repro.sessions.simulator``'s own import of the name.
    """
    from repro.mcast.simulator import MulticastSimulator
    from repro.nic import interface
    from repro.sessions import contention
    from repro.sessions import simulator as session_simulator
    from repro.sim.engine import Environment
    from repro.sim.process import Process

    patches.set(Environment, "schedule", counted(stats, "sim.schedule", Environment.schedule))
    patches.set(Process, "_resume", counted(stats, "sim.resume", Process._resume))
    patches.set(
        interface.TRANSMITTERS,
        "path",
        counted(stats, "nic.transmit", interface.TRANSMITTERS["path"]),
    )
    arbiter = contention.SessionArbiter
    patches.set(arbiter, "_on_delivery", counted(stats, "nic.listener", arbiter._on_delivery))
    patches.set(arbiter, "_admit", counted(stats, "sessions.admit", arbiter._admit))
    track = stats.tracer.track("loadgen", "operations")
    for stage in ("_build_network", "_start_multicast", "_drain", "_collect"):
        original = getattr(MulticastSimulator, stage)
        patches.set(
            MulticastSimulator, stage, timed(stats, "mcast." + stage.strip("_"), original, track)
        )
    for owner in (tree_owner, session_simulator):
        patches.set(
            owner,
            "build_kbinomial_tree",
            timed(stats, "core.tree", owner.build_kbinomial_tree, track),
        )


def package_seconds(profile) -> Dict[str, float]:
    """Self time per ``repro`` subpackage from a deterministic profile.

    Functions outside the program and the benchmark (builtins such as
    ``heapq.heappush``, the standard library, dataclass-generated
    ``__init__``/``__eq__``) are charged to the package of their caller,
    edge by edge, so a kernel that spends its time in ``heapq`` shows
    that time as kernel time.
    """
    import repro

    repro_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

    def package(filename: str) -> Optional[str]:
        if filename.startswith(repro_root):
            head = filename[len(repro_root):].split(os.sep)
            return head[0] if len(head) > 1 else "repro"
        if filename.startswith(BENCH_DIR):
            return "bench"
        return None

    totals: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in pstats.Stats(
        profile
    ).stats.items():
        owner = package(filename)
        if owner is not None:
            totals[owner] += tt
        elif callers:
            for (caller_file, _cl, _cn), edge in callers.items():
                totals[package(caller_file) or "other"] += edge[2]
        else:
            totals["other"] += tt
    return dict(totals)


# ---------------------------------------------------------------------------
# Service side
# ---------------------------------------------------------------------------


def _kind(message) -> str:
    if isinstance(message, dict):
        if "result" in message or message.get("type") in ("plan", "amend"):
            return "plan"
        if "health" in message or message.get("type") == "health":
            return "health"
    return "other"


class TimedJson:
    """Stands in for ``json`` inside one program module, timing each call.

    Calls are filed by layer and message kind (``plan``, ``health`` or
    ``other``), so probe traffic never pollutes the plan-path numbers.
    """

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, stats: Stats, layer: str) -> None:
        self._stats = stats
        self._layer = layer

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, text, *args, **kwargs):
        start = _perf()
        message = json.loads(text, *args, **kwargs)
        self._stats.add(f"{self._layer}.decode.{_kind(message)}", _perf() - start, len(text))
        return message

    def dumps(self, message, *args, **kwargs):
        start = _perf()
        text = json.dumps(message, *args, **kwargs)
        self._stats.add(f"{self._layer}.encode.{_kind(message)}", _perf() - start, len(text))
        return text


def _caller_layer() -> str:
    caller = sys._getframe(2).f_globals.get("__name__", "")
    return "cluster" if caller.startswith("repro.cluster") else "service"


def install_client_probes(patches: Patches, stats: Stats) -> None:
    """Load-generator side: the client's response decode and request spans."""
    from repro.service import client
    from repro.service.planner import PlanResult

    patches.set(client, "json", TimedJson(stats, "client"))
    from_dict = timed(stats, "client.from_dict", PlanResult.from_dict)
    patches.set(PlanResult, "from_dict", staticmethod(from_dict))
    track = stats.tracer.track("loadgen", "PlanClient.request")
    patches.set(
        client.PlanClient,
        "request",
        timed_async(stats, "client.request", client.PlanClient.request, track),
    )


def install_server_probes(patches: Patches, stats: Stats) -> None:
    """System-under-test side: server, batcher, planner hand-off and router."""
    from repro.cluster import router
    from repro.service import batching, client, server
    from repro.service.planner import PlanResult

    patches.set(server, "json", TimedJson(stats, "service"))
    patches.set(router, "json", TimedJson(stats, "cluster"))
    # In the system under test the client module only carries the
    # router's hop to its shards.
    patches.set(client, "json", TimedJson(stats, "cluster"))
    patches.set(
        PlanResult,
        "from_dict",
        staticmethod(timed(stats, "cluster.from_dict", PlanResult.from_dict)),
    )

    to_dict = PlanResult.to_dict

    def timed_to_dict(result):
        start = _perf()
        payload = to_dict(result)
        stats.add(_caller_layer() + ".to_dict", _perf() - start)
        return payload

    patches.set(PlanResult, "to_dict", timed_to_dict)

    loop_track = stats.tracer.track("sut", "event loop")
    patches.set(
        server.PlanServer,
        "_handle_line",
        timed_async(stats, "service.handle_line", server.PlanServer._handle_line, loop_track),
    )
    patches.set(
        server.PlanServer,
        "health_report",
        timed(stats, "service.health_report", server.PlanServer.health_report),
    )

    # Batch wait: from the submit that starts a computation to the
    # moment the executor picks its chunk up.  Followers that attach to
    # an in-flight key wait on the leader, not on the batcher.
    leaders: Dict[object, float] = {}
    submit = batching.PlanBatcher.submit

    async def timed_submit(batcher, request):
        if request not in batcher._inflight:
            leaders[request] = _perf()
        return await submit(batcher, request)

    patches.set(
        batching.PlanBatcher,
        "submit",
        timed_async(stats, "service.submit", timed_submit, loop_track),
    )
    plan_chunk = batching.plan_chunk

    def timed_plan_chunk(requests):
        start = _perf()
        for request in requests:
            submitted = leaders.pop(request, None)
            if submitted is not None:
                stats.add("service.batch_wait", start - submitted)
        outcomes = plan_chunk(requests)
        end = _perf()
        stats.add("service.compute", end - start, calls=len(requests))
        with stats.lock:  # each shard's batcher has its own worker thread
            track = stats.tracer.track("sut", f"plan worker {threading.get_ident()}")
            stats.tracer.complete("service.compute", track, start * 1e6, end * 1e6, cat="layer")
        return outcomes

    patches.set(batching, "plan_chunk", timed_plan_chunk)
    patches.set(
        router.ClusterRouter,
        "_forward",
        timed_async(stats, "cluster.forward", router.ClusterRouter._forward, loop_track),
    )


def trace_events(tracer):
    """The tracer's events with overlapping ``async`` spans spread over lanes.

    Chrome trace viewers expect the spans of one thread to nest, which
    concurrent requests do not; each async span name gets as many
    ``name #i`` rows as it had requests in flight at once.
    """
    from repro.obs.tracer import TraceEvent

    names = {}
    for event in tracer.events:
        if event.ph == "M" and event.name == "process_name":
            names[event.pid] = event.args["name"]
    spans = sorted(
        (e for e in tracer.events if e.ph == "X" and e.cat == "async"), key=lambda e: e.ts
    )
    out = [e for e in tracer.events if not (e.ph == "X" and e.cat == "async")]
    known = len(tracer.events)
    lanes: Dict[tuple, list] = defaultdict(list)
    laned = []
    for span in spans:
        ends = lanes[(span.pid, span.name)]
        lane = next((i for i, end in enumerate(ends) if end <= span.ts), len(ends))
        if lane == len(ends):
            ends.append(0.0)
        ends[lane] = span.ts + span.dur
        track = tracer.track(names[span.pid], f"{span.name} #{lane}")
        laned.append(
            TraceEvent(
                "X", span.name, span.cat, span.ts, track.pid, track.tid,
                dur=span.dur, args=span.args,
            )
        )
    # Interning the lane tracks appended their naming metadata.
    return out + tracer.events[known:] + laned


def span_self_times(events) -> Dict[str, dict]:
    """Per span name: count, total µs and, for nesting spans, self µs.

    A ``layer`` span's self time is its duration minus the part of it
    that child spans on the same track cover; synchronous wrappers nest,
    so a stack walk in start order finds each span's children.  Async
    spans overlap and report count and total only.
    """
    by_track = defaultdict(list)
    table: Dict[str, dict] = {}
    for event in events:
        if event.ph != "X":
            continue
        row = table.setdefault(event.name, {"count": 0, "total_us": 0.0})
        row["count"] += 1
        row["total_us"] += event.dur
        if event.cat == "layer":
            by_track[(event.pid, event.tid)].append(event)
    for spans in by_track.values():
        spans.sort(key=lambda e: (e.ts, -e.dur))
        stack = []  # [end, name, duration, time covered by children]

        def close(entry):
            _end, name, dur, cover = entry
            row = table[name]
            row["self_us"] = row.get("self_us", 0.0) + max(dur - cover, 0.0)
            if stack:
                stack[-1][3] += dur

        for span in spans:
            while stack and stack[-1][0] <= span.ts:
                close(stack.pop())
            stack.append([span.ts + span.dur, span.name, span.dur, 0.0])
        while stack:
            close(stack.pop())
    return table
