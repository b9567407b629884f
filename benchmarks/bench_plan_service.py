"""A15 — infrastructure: the multicast plan service under load.

Drives the asyncio plan server over a real socket with a Zipf-shaped
request mix (a few hot (n, m) keys and a long tail — the distribution
a shared planning service actually sees) at increasing client
concurrency, each row from empty memos.  The main rows ask for
two-port plans, which the server computes in its executor: the ledger
is exact (every request is a memo hit on the read loop, a computation,
or a single-flight follower of one); each unique key is computed
exactly once, a warm repeat served from the memo and a repeat in
flight from the shared computation; at high concurrency the hot keys
meet in flight, so single-flight absorbs duplicates; and every answer
matches the direct in-process planner.  A last row asks for the same
mix on one port, where the server computes a cold plan on its read
loop: nothing is ever in flight to share, so each key is computed once
and every repeat is a memo hit.
"""

from __future__ import annotations

import asyncio

from repro.analysis import render_table
from repro.analysis.load import zipf_plan_mix
from repro.core import clear_caches
from repro.params import MachineParams
from repro.service import PlanClient, PlanRequest, PlanServer, plan

CONCURRENCY = (1, 8, 32, 128)
REQUESTS = 256
#: ``(ports, concurrency)`` of each row: the two-port rows, then one
#: one-port row at the highest concurrency.
ROWS = [(2, concurrency) for concurrency in CONCURRENCY] + [(1, CONCURRENCY[-1])]


async def drive(mix, concurrency: int, params: MachineParams) -> dict:
    server = PlanServer(port=0, workers=2, max_inflight=2 * len(mix))
    await server.start()
    client = await PlanClient.connect("127.0.0.1", server.port)
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(concurrency)

    async def one(n: int, m: int):
        async with semaphore:
            return await client.plan(n, m, params)

    start = loop.time()
    results = await asyncio.gather(*[one(n, m) for n, m in mix])
    elapsed = loop.time() - start
    stats = await client.stats()
    await client.close()
    await server.shutdown()
    for (n, m), result in zip(mix, results):
        assert result == plan(PlanRequest(n=n, m=m, params=params))
    return {
        "elapsed": elapsed,
        "throughput": len(mix) / elapsed,
        "p95_us": stats["plan_latency"]["p95_us"],
        "memo_hits": stats["counters"]["memo_hits"],
        "planned": stats["counters"]["planned"],
        "singleflight_hits": stats["counters"]["singleflight_hits"],
        "shed": stats["counters"]["shed"],
    }


def measure():
    mix = zipf_plan_mix(REQUESTS)
    unique = len(set(mix))
    rows = []
    for ports, concurrency in ROWS:
        clear_caches()  # each row starts cold, not from the last row's memos
        sample = asyncio.run(drive(mix, concurrency, MachineParams(ports=ports)))
        rows.append(
            [
                ports,
                concurrency,
                len(mix),
                unique,
                sample["memo_hits"],
                sample["planned"],
                sample["singleflight_hits"],
                round(sample["throughput"], 0),
                round(sample["p95_us"] / 1000.0, 1),
            ]
        )
    return rows


def test_plan_service_throughput(benchmark, show):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        render_table(
            [
                "ports",
                "concurrency",
                "requests",
                "unique keys",
                "memo hits",
                "planned",
                "sf hits",
                "req/s",
                "p95 ms",
            ],
            rows,
            title=f"A15: plan service under a Zipf mix of {REQUESTS} requests",
        )
    )
    *two_port, one_port = rows
    for _, concurrency, total, unique, memo_hits, planned, hits, _, _ in two_port:
        # The ledger is exact: every request was answered from the memo
        # on the read loop, computed, or rode an in-flight duplicate.
        assert memo_hits + planned + hits == total
        # Each unique key is computed exactly once: a warm repeat is a
        # memo hit, and a repeat in flight shares the computation.
        assert planned == unique
    # At high concurrency the hot keys overlap in flight: dedupe must
    # collapse a Zipf mix well below one computation per request.
    high = two_port[-1]
    assert high[5] < REQUESTS / 2, f"expected single-flight dedupe, planned={high[5]}"
    assert high[6] > 0
    # One port: the first request of each key computes it on the read
    # loop, so no computation is ever in flight to share.
    _, _, total, unique, memo_hits, planned, hits, _, _ = one_port
    assert hits == 0
    assert planned == unique
    assert memo_hits + planned == total
