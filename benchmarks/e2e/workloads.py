"""The four workloads, one timed round at a time.

A round runs in a fresh process: it builds its inputs from the seed,
warms up, measures for the given seconds, and checks every output.
:func:`run_round` returns a JSON-ready dict that ``run.py`` combines
across rounds.  Every raw time in it comes with the monotonic-clock
interval it was measured over, so ``run.py`` can scale it to the
reference host speed (see ``speed.py``).

Simulation workloads are closed loops over a fixed cycle of inputs.
The first pass over the cycle is the warm-up and gives each input's
reference fingerprint; every timed repeat must reproduce it, and the
digest of the cycle must match the recorded one for seed 0.

Service workloads drive a separate system-under-test process (see
``sut.py``) through one pipelined :class:`repro.service.PlanClient`
connection on one event loop.  After each timed phase every answer is
compared with in-process ``plan(PlanRequest(...))``.
"""

from __future__ import annotations

import asyncio
import cProfile
import hashlib
import itertools
import json
import os
import random
import resource
import sys
import time

import layers
from repro import (
    PAPER_PARAMS,
    MulticastSimulator,
    UpDownRouter,
    build_irregular_network,
    build_kbinomial_tree,
    cco_ordering,
    chain_for,
    optimal_k,
)
from repro.analysis.load import zipf_plan_mix
from repro.core.cache import cache_stats
from repro.sessions.sweep import sessions_point

#: Timing parameters of every simulated multicast (the self-test swaps
#: in perturbed ones to prove the digest check catches a model change).
PARAMS = PAPER_PARAMS

BROADCAST_TESTBEDS = 4
BROADCAST_PACKETS = 32
SESSION_SCHEDULERS = ("fifo", "rr", "sjf", "cda")
SESSION_LOADS = (1.0, 2.0)
SESSION_SEEDS = 1
#: A burst of 10 sessions x 15 destinations x 8 packets, two admitted at
#: a time, with isolated baselines.  Fixed group sizes (``batch``
#: arrivals) keep a run's work nearly independent of the seed (kernel
#: events vary 1.8% across seeds); the Zipf sizes of ``flash_crowd``
#: varied it 25%, and 2.3x between the extremes.
SESSION_POINT = {
    "arrival": "batch",
    "count": 10,
    "dests": 15,
    "m": 8,
    "max_active": 2,
    "measure_isolated": True,
}

HOT_RATE = 500.0
HOT_AMEND_EVERY = 8
HOT_AMEND_KEYS = 4
HOT_AMEND_DELTAS = ((1, ()), (0, (1,)), (2, (3,)))
ROUTED_RATE = 60.0
ROUTED_NS = (128, 192, 256, 384, 512)
ROUTED_MS = (8, 16, 32)
ROUTED_MAX_EXCLUDE = 3
#: Share of a service round spent in the open loop (latency at a fixed
#: rate); the rest is the closed loop of CLOSED_INFLIGHT requests, which
#: measures saturation throughput and the gated CPU per request.
OPEN_SHARE = 0.6
CLOSED_INFLIGHT = 32
CLOSED_REQUESTS = 500
CLIENT_TIMEOUT = 10.0

SUT_PATH = os.path.join(layers.BENCH_DIR, "sut.py")


def fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"e2e:{workload}:{seed}")


def _cache_calls():
    caches = cache_stats().values()
    return sum(c.hits for c in caches), sum(c.hits + c.misses for c in caches)


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def broadcast_inputs(seed: int):
    """One (simulator, ordering, source) per seed-derived 64-host testbed."""
    rng = _rng("sim_broadcast", seed)
    inputs = []
    for _ in range(BROADCAST_TESTBEDS):
        topology = build_irregular_network(seed=rng.randrange(2**31))
        router = UpDownRouter(topology)
        ordering = cco_ordering(topology, router)
        simulator = MulticastSimulator(topology, router, params=PARAMS)
        inputs.append((simulator, ordering, rng.choice(ordering)))
    return inputs


def run_broadcast(item):
    """chain_for + Theorem-3 k + tree build + one FPFS multicast to all hosts.

    Returns the run's fingerprint and its (destination, packet) deliveries.
    """
    simulator, ordering, source = item
    chain = chain_for(source, [h for h in ordering if h != source], ordering)
    tree = build_kbinomial_tree(chain, optimal_k(len(chain), BROADCAST_PACKETS))
    result = simulator.run(tree, BROADCAST_PACKETS)
    digest = fingerprint(
        result.latency, result.packet_completion, sorted(result.peak_buffers.items())
    )
    return digest, (len(chain) - 1) * BROADCAST_PACKETS


def session_inputs(seed: int):
    rng = _rng("sim_sessions", seed)
    seeds = [rng.randrange(10**6) for _ in range(SESSION_SEEDS)]
    return [
        (scheduler, load, point_seed)
        for point_seed in seeds
        for scheduler in SESSION_SCHEDULERS
        for load in SESSION_LOADS
    ]


def run_sessions(item):
    """One ``sessions_point`` burst: its summary record's fingerprint and
    its deliveries, every session once in the shared run and once alone
    for its isolated baseline."""
    scheduler, load, point_seed = item
    record = sessions_point(scheduler, load, point_seed, **SESSION_POINT)
    runs = 2 if SESSION_POINT["measure_isolated"] else 1
    deliveries = record["completed"] * record["dests"] * record["m"] * runs
    return fingerprint(json.dumps(record, sort_keys=True)), deliveries


SIM_WORKLOADS = {
    "sim_broadcast": (broadcast_inputs, run_broadcast),
    "sim_sessions": (session_inputs, run_sessions),
}


def sim_round(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: str, sampler
) -> dict:
    make_inputs, operation = SIM_WORKLOADS[workload]
    inputs = make_inputs(seed)
    reference, deliveries = zip(*(operation(item) for item in inputs))

    stats = profile = None
    if traced:
        from repro.obs import Tracer

        # Internal probes only here: untraced rounds run the program as shipped.
        stats = layers.Stats(Tracer())
        tally = layers.FabricTally()
        patches = layers.Patches()
        layers.install_fabric_tally(patches, tally)
        layers.install_sim_probes(patches, stats, sys.modules[__name__])
        op_track = stats.tracer.track("loadgen", "operations")
        profile = cProfile.Profile()
        hits0, calls0 = _cache_calls()
        sampler.stop()  # under the profiler the kernel would time the profiler

    ready_at = time.monotonic()
    ops, failed, work, acquisitions, cpu = [], 0, 0, 0, 0.0
    blocked = {}  # item -> simulated µs blocked; one cycle's sum stays exact
    count = len(inputs)
    start = time.monotonic()
    if profile is not None:
        profile.enable()
    i = 0
    # At least one pass over the cycle; traced rounds stop on a cycle
    # boundary so their per-delivery counts repeat exactly.
    while i < count or time.monotonic() - start < seconds or (traced and i % count):
        item = i % count
        c0, s0 = time.process_time(), sampler.cpu_s
        t0 = time.monotonic()
        ok = operation(inputs[item]) == (reference[item], deliveries[item])
        t1 = time.monotonic()
        cpu += time.process_time() - c0 - (sampler.cpu_s - s0)
        ops.append((t0, t1))
        work += deliveries[item]
        failed += not ok
        if traced:
            stats.tracer.complete("operation", op_track, t0 * 1e6, t1 * 1e6, cat="layer")
            delivered, acquired, waited = tally.take()
            failed += delivered != deliveries[item] or blocked.setdefault(item, waited) != waited
            acquisitions += acquired
        i += 1
    if profile is not None:
        profile.disable()
    end = time.monotonic()
    if traced:
        patches.restore()

    busy = sum(t1 - t0 for t0, t1 in ops)
    result = {
        "ready_at": ready_at,
        "attempted": i,
        "failed": failed,
        "digest": fingerprint(*reference),
        "ops": ops,
        "cpu": [cpu, i, start, end],
        "throughput": [work, ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": sampler.samples,
        "loadgen": {"cpu_share": cpu / busy},
    }
    if traced:
        hits1, calls1 = _cache_calls()
        owners = layers.package_seconds(profile)
        counts, secs = stats.counts, stats.seconds
        result["layers"] = {
            "sim.events_per_delivery": counts["sim.schedule"] / work,
            "sim.resumes_per_delivery": counts["sim.resume"] / work,
            "sim.self_ms_per_run": owners.get("sim", 0.0) * 1e3 / i,
            "nic.sends_per_delivery": counts["nic.transmit"] / work,
            "nic.listener_calls_per_delivery": counts["nic.listener"] / work,
            "nic.self_ms_per_run": owners.get("nic", 0.0) * 1e3 / i,
            "network.acquires_per_delivery": acquisitions / work,
            "network.blocked_us_per_delivery": sum(blocked.values()) / sum(deliveries),
            "network.self_ms_per_run": owners.get("network", 0.0) * 1e3 / i,
            "mcast.build_ms_per_run": secs["mcast.build_network"] * 1e3 / i,
            "mcast.drain_ms_per_run": secs["mcast.drain"] * 1e3 / i,
            "mcast.collect_ms_per_run": secs["mcast.collect"] * 1e3 / i,
            "sessions.admissions_per_run": counts["sessions.admit"] / i,
            "sessions.self_ms_per_run": owners.get("sessions", 0.0) * 1e3 / i,
            "core.tree_us_per_run": secs["core.tree"] * 1e6 / i,
            "core.cache_hit_ratio": (hits1 - hits0) / max(calls1 - calls0, 1),
        }
        result["profile_self_ms_per_run"] = {
            owner: value * 1e3 / i for owner, value in sorted(owners.items())
        }
        result["spans"] = layers.span_self_times(stats.tracer.events)
        _write_trace(out_dir, workload, seed, layers.trace_events(stats.tracer))
    return result


def _write_trace(out_dir: str, workload: str, seed: int, events, sut_trace=None):
    """One Perfetto-loadable file per workload; the SUT's spans (another
    process, same monotonic clock) are merged in on their own pids.
    Returns the merged events."""
    from repro.obs import TraceEvent, write_chrome_trace

    events = list(events)
    if sut_trace is not None:
        with open(sut_trace, encoding="utf-8") as handle:
            for raw in json.load(handle)["traceEvents"]:
                raw["pid"] += 100
                events.append(TraceEvent(**raw))
        os.remove(sut_trace)
    write_chrome_trace(
        os.path.join(out_dir, f"{workload}-seed{seed}.trace.json"),
        events,
        manifest={"workload": workload, "seed": seed},
    )
    return events


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------
#
# A request is a tuple: ("plan", n, m, exclude) or
# ("amend", n, m, exclude, join, leave).


def _poisson(rng: random.Random, rate: float, seconds: float):
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def hot_requests(rng: random.Random, count: int):
    """The 32-key Zipf mix (n 8..128, m 4/16); every 8th an amend of a hot key."""
    mix = zipf_plan_mix(count, seed=rng.randrange(2**31))
    keys = sorted(set(mix))
    amends = [
        ("amend", n, m, (), join, leave)
        for n, m in keys[:HOT_AMEND_KEYS]
        for join, leave in HOT_AMEND_DELTAS
    ]
    stream = [
        rng.choice(amends) if i % HOT_AMEND_EVERY == HOT_AMEND_EVERY - 1 else ("plan", n, m, ())
        for i, (n, m) in enumerate(mix)
    ]
    return stream, [("plan", n, m, ()) for n, m in keys] + amends


def routed_requests(rng: random.Random, count: int):
    """Mostly unique plans, n 128..512 × m 8..32 with 0-3 excluded positions.

    Every block of 15 requests holds each (n, m) once in a seeded order,
    so the size mix, and with it the cost of a run, is the same for
    every seed; only the order and the excluded positions change.
    """
    keys = [(n, m) for n in ROUTED_NS for m in ROUTED_MS]
    stream = []
    while len(stream) < count:
        for n, m in rng.sample(keys, len(keys)):
            exclude = rng.sample(range(1, n), rng.randint(0, ROUTED_MAX_EXCLUDE))
            stream.append(("plan", n, m, tuple(sorted(exclude))))
    del stream[count:]
    # One request per schedule memo key (n - excluded, k, m).
    warm = [
        ("plan", n, m, tuple(range(1, e + 1)))
        for n in ROUTED_NS
        for m in ROUTED_MS
        for e in range(ROUTED_MAX_EXCLUDE + 1)
    ]
    return stream, warm


#: workload -> (system under test, open-loop rate req/s, request stream)
SERVICE_WORKLOADS = {
    "plan_hot": ("single", HOT_RATE, hot_requests),
    "plan_routed": ("routed", ROUTED_RATE, routed_requests),
}


def service_requests(workload: str, seed: int, open_s: float):
    """``(schedule, closed, warm)``: Poisson ``(offset, request)`` pairs for
    the open loop, the closed loop's request cycle, and the warm-up set."""
    _, rate, make = SERVICE_WORKLOADS[workload]
    rng = _rng(workload, seed)
    offsets = _poisson(rng, rate, open_s)
    stream, warm = make(rng, len(offsets) + CLOSED_REQUESTS)
    return list(zip(offsets, stream)), stream[len(offsets):], warm


def expected_plan(request):
    from repro.membership.amend import amended_request
    from repro.service import PlanRequest, plan

    if request[0] == "plan":
        _, n, m, exclude = request
        return plan(PlanRequest(n=n, m=m, exclude=exclude))
    _, n, m, exclude, join, leave = request
    return plan(amended_request(n, m, None, exclude, join=join, leave=leave))


class _Sut:
    """The system-under-test process and its ``mark`` control channel."""

    def __init__(self, process) -> None:
        self.process = process

    @classmethod
    async def start(cls, mode: str, trace_out):
        argv = [sys.executable, SUT_PATH, mode]
        if trace_out:
            argv += ["--trace-out", trace_out]
        process = await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE
        )
        sut = cls(process)
        try:
            sut.port = (await sut._read())["port"]
        except BaseException:
            await sut.stop()
            raise
        return sut

    async def _read(self) -> dict:
        line = await asyncio.wait_for(self.process.stdout.readline(), 60.0)
        if not line:
            raise RuntimeError("system under test exited early")
        return json.loads(line)

    async def mark(self) -> dict:
        self.process.stdin.write(b"mark\n")
        await self.process.stdin.drain()
        return await self._read()

    async def stop(self) -> None:
        if self.process.stdin is not None and not self.process.stdin.is_closing():
            self.process.stdin.close()
        try:
            await asyncio.wait_for(self.process.wait(), 30.0)
        except asyncio.TimeoutError:
            self.process.kill()
            await self.process.wait()


async def _call(client, request, since: float):
    """``(since, latency s or None, request, answer fingerprint)``; a
    latency of None marks a failed request."""
    from repro.service import PlanServiceError

    _, n, m, exclude, *delta = request
    try:
        if request[0] == "plan":
            result = await client.plan(n, m, exclude=exclude, timeout=CLIENT_TIMEOUT)
        else:
            join, leave = delta
            result = await client.amend(
                n, m, exclude=exclude, join=join, leave=leave, timeout=CLIENT_TIMEOUT
            )
    except (PlanServiceError, ConnectionError, RuntimeError):
        return since, None, request, None
    return since, asyncio.get_running_loop().time() - since, request, hash(result)


async def _open_loop(client, schedule):
    """Send each request at its due time; latency counts from the due time."""
    loop = asyncio.get_running_loop()
    begin = loop.time() + 0.01
    tasks, lags = [], []
    for offset, request in schedule:
        due = begin + offset
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        lags.append((loop.time() - due) * 1e3)
        tasks.append(asyncio.ensure_future(_call(client, request, due)))
    return await asyncio.gather(*tasks), lags


async def _closed_loop(client, requests, seconds: float):
    loop = asyncio.get_running_loop()
    cycle = itertools.cycle(requests)
    deadline = loop.time() + seconds
    outcomes = []

    async def worker():
        while loop.time() < deadline:
            outcomes.append(await _call(client, next(cycle), loop.time()))

    start = loop.time()
    await asyncio.gather(*(worker() for _ in range(CLOSED_INFLIGHT)))
    return outcomes, start, loop.time()


def _mismatches(outcomes) -> int:
    """Answers that failed or differ from in-process ``plan()``."""
    expected = {}
    bad = 0
    for _since, latency, request, answer in outcomes:
        if latency is None:
            bad += 1
            continue
        if request not in expected:
            expected[request] = hash(expected_plan(request))
        bad += answer != expected[request]
    return bad


def _service_layers(before: dict, after: dict, client_delta: dict, answered: int, phase_s: float):
    """Per-layer metrics of one open-loop phase from SUT and client probe deltas."""
    d = layers.delta(after["probes"], before["probes"])
    counts, secs, size = d["counts"], d["seconds"], d["bytes"]
    service, router, cache = (
        {k: after[part][k] - before[part][k] for k in after[part]}
        for part in ("service", "router", "cache")
    )

    def mean_us(*names, per=None):
        total = sum(secs.get(name, 0.0) for name in names)
        calls = per if per is not None else sum(counts.get(name, 0) for name in names)
        return total * 1e6 / calls if calls else 0.0

    forwarded = router["forwarded"]
    client_secs = client_delta["seconds"]
    probe_s = sum(
        secs.get(name, 0.0)
        for name in (
            "service.health_report",
            "service.decode.health",
            "service.encode.health",
            "cluster.decode.health",
            "cluster.encode.health",
        )
    )
    return {
        "service.decode_us": mean_us("service.decode.plan"),
        "service.batch_wait_us": mean_us("service.batch_wait"),
        "service.compute_us": mean_us("service.compute"),
        "service.to_dict_us": mean_us("service.to_dict"),
        "service.encode_us": mean_us("service.encode.plan"),
        "service.resp_kb_mean": size.get("service.encode.plan", 0)
        / max(counts.get("service.encode.plan", 0), 1)
        / 1024.0,
        "service.computations_per_req": service["planned"] / service["plans"],
        "service.singleflight_ratio": service["singleflight_hits"] / service["plans"],
        "service.batch_size_mean": service["planned"] / max(service["batches"], 1),
        "service.client_decode_us": (
            client_secs["client.decode.plan"] + client_secs["client.from_dict"]
        )
        * 1e6
        / answered,
        "cluster.decode_us": mean_us(
            "cluster.decode.plan", "cluster.from_dict", per=forwarded
        ),
        "cluster.encode_us": mean_us("cluster.encode.plan", "cluster.to_dict", per=forwarded),
        "cluster.forward_ms": mean_us("cluster.forward") / 1e3,
        "cluster.warm_plans_per_req": router["warmed_keys"] / forwarded if forwarded else 0.0,
        "cluster.probe_ms_per_s": probe_s * 1e3 / phase_s,
        "core.cache_hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
    }


async def service_round(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: str, sampler
) -> dict:
    from repro.service import PlanClient

    mode = SERVICE_WORKLOADS[workload][0]
    schedule, closed, warm = service_requests(workload, seed, seconds * OPEN_SHARE)
    client_stats = patches = sut_trace = None
    if traced:
        from repro.obs import Tracer

        client_stats = layers.Stats(Tracer())
        patches = layers.Patches()
        layers.install_client_probes(patches, client_stats)
        sut_trace = os.path.join(out_dir, f"{workload}-seed{seed}.sut.json")

    sut = await _Sut.start(mode, sut_trace)
    client = None
    try:
        client = await PlanClient.connect("127.0.0.1", sut.port)
        warmed = await asyncio.gather(*(_call(client, r, 0.0) for r in warm))

        before = await sut.mark()
        ready_at = time.monotonic()
        client_before = client_stats.snapshot() if traced else None
        cpu0 = time.process_time()
        start = time.monotonic()
        outcomes, lags = await _open_loop(client, schedule)
        end = time.monotonic()
        loadgen_cpu = time.process_time() - cpu0
        after = await sut.mark()
        client_after = client_stats.snapshot() if traced else None
        closed_outcomes, closed_start, closed_end = await _closed_loop(
            client, closed, seconds * (1 - OPEN_SHARE)
        )
        final = await sut.mark()
    finally:
        if client is not None:
            await client.close()
        await sut.stop()
        if patches is not None:
            patches.restore()

    phase_s = end - start
    ops = [(due, due + latency) for due, latency, _, _ in outcomes if latency is not None]
    answered = len(ops)
    closed_answered = sum(latency is not None for _, latency, _, _ in closed_outcomes)
    every = warmed + outcomes + closed_outcomes
    result = {
        "ready_at": ready_at,
        "attempted": len(every),
        "failed": _mismatches(every),
        "digest": None,
        "ops": ops,
        # Under saturation the server's batches are as full as they get;
        # in the open loop its CPU per request depends on how requests
        # happen to coalesce, which moves with the host (README.md).
        "cpu": [final["cpu_s"] - after["cpu_s"], closed_answered, closed_start, closed_end],
        "open_cpu": [after["cpu_s"] - before["cpu_s"], answered, start, end],
        "throughput": [closed_answered, [(closed_start, closed_end)]],
        "peak_rss_mb": final["peak_rss_mb"],
        "speed": sampler.samples + final["speed"],
        "loadgen": {
            "cpu_share": loadgen_cpu / phase_s,
            "lag_p99_ms": layers.quantile(lags, 0.99),
        },
    }
    if traced:
        client_delta = layers.delta(client_after, client_before)
        result["layers"] = _service_layers(before, after, client_delta, answered, phase_s)
        events = _write_trace(
            out_dir, workload, seed, layers.trace_events(client_stats.tracer), sut_trace
        )
        result["spans"] = layers.span_self_times(events)
    return result


def run_round(
    workload: str, seed: int, seconds: float, traced: bool, out_dir: str, sampler
) -> dict:
    """One round; ``sampler`` is the round's running :class:`speed.Sampler`."""
    if workload in SIM_WORKLOADS:
        return sim_round(workload, seed, seconds, traced, out_dir, sampler)
    return asyncio.run(service_round(workload, seed, seconds, traced, out_dir, sampler))
