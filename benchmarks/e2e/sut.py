"""The system under test for the service workloads, run as one process.

    python sut.py single|routed [--trace-out PATH]

``single`` serves one ``PlanServer(workers=1)``; ``routed`` serves a
``ClusterRouter`` in front of two ``PlanServer(workers=1)`` shards, all
on one event loop.  The process prints ``{"port": P}`` once it accepts
connections, then answers each ``mark`` line on stdin with one JSON
snapshot of its own CPU time, peak RSS, service counters and host-speed
samples (and probe totals when traced).  End of stdin shuts it down;
with ``--trace-out`` it then writes its spans as a Chrome trace.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import layers
import speed


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def snapshot(servers, router, stats, sampler) -> dict:
    from repro.core.cache import cache_stats

    totals = {"plans": 0, "planned": 0, "singleflight_hits": 0, "batches": 0, "errors": 0}
    for server in servers:
        for name in totals:
            totals[name] += getattr(server.metrics, name).value
    caches = cache_stats().values()
    return {
        "cpu_s": time.process_time() - sampler.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "service": totals,
        "cache": {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
        },
        "router": {
            "forwarded": router.forwarded.value if router else 0,
            "warmed_keys": router.warmed_keys.value if router else 0,
        },
        "probes": stats.snapshot() if stats is not None else None,
        "speed": sampler.samples,
    }


async def serve(mode: str, trace_out, sampler) -> None:
    from repro.cluster import ClusterRouter, ShardSpec
    from repro.obs import Tracer, write_chrome_trace
    from repro.service import PlanServer

    stats = patches = None
    if trace_out:
        stats = layers.Stats(Tracer())
        patches = layers.Patches()
        layers.install_server_probes(patches, stats)

    router = None
    if mode == "single":
        servers = [PlanServer(port=0, workers=1)]
    else:
        servers = [PlanServer(port=0, workers=1, shard_id=sid) for sid in range(2)]
    for server in servers:
        await server.start()
    if mode == "routed":
        router = ClusterRouter(
            [ShardSpec(shard_id=i, host="127.0.0.1", port=s.port) for i, s in enumerate(servers)],
            port=0,
        )
        await router.start()
    port = router.port if router else servers[0].port

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    print(json.dumps({"port": port}), flush=True)
    try:
        while True:
            line = await commands.readline()
            if not line:
                break
            if line.strip() == b"mark":
                print(json.dumps(snapshot(servers, router, stats, sampler)), flush=True)
    finally:
        if router is not None:
            await router.shutdown()
        for server in servers:
            await server.shutdown()
        if patches is not None:
            patches.restore()
            write_chrome_trace(trace_out, layers.trace_events(stats.tracer))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("single", "routed"))
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sampler = speed.Sampler()
    sampler.start()
    try:
        asyncio.run(serve(args.mode, args.trace_out, sampler))
    finally:
        sampler.stop()


if __name__ == "__main__":
    main()
