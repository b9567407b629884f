#!/usr/bin/env python
"""Scenario: an ad-hoc design-space sweep on the parallel sweep engine.

Question a system architect might ask: *how sensitive is the k-binomial
advantage to NI send overhead?*  Faster NIs shrink the per-step cost
and with it the absolute win; this sweep varies ``t_ns`` and the
message length over a fixed 31-destination multicast and tabulates the
binomial/k-binomial latency ratio at each grid point.

The measure is a module-level (picklable) function, so ``--workers N``
fans the grid out over processes — each worker rebuilds the testbed
once (memoized) and keeps its tree caches warm across points — and
``--checkpoint FILE`` journals each finished chunk: a re-run of the
same study (same ``--workers``) resumes from the journal and simulates
only the chunks it does not hold.

Run:  python examples/parameter_study.py [--workers 4] [--checkpoint study.ckpt]
"""

from __future__ import annotations

import argparse
import random
from functools import lru_cache

from repro import (
    MulticastSimulator,
    PAPER_PARAMS,
    UpDownRouter,
    build_binomial_tree,
    build_irregular_network,
    cco_ordering,
    chain_for,
    optimal_k,
)
from repro.analysis import render_table, run_sweep, sweep_table
from repro.core import cached_build_kbinomial_tree


@lru_cache(maxsize=1)
def _testbed():
    """The study's fixed testbed — built once per process, then shared."""
    topology = build_irregular_network(seed=4)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    rng = random.Random(17)
    picked = rng.sample(list(topology.hosts), 32)
    chain = tuple(chain_for(picked[0], picked[1:], ordering))
    return topology, router, chain


def ratio(t_ns: float, m: int) -> float:
    """binomial/k-binomial latency ratio at one (t_ns, m) grid point."""
    topology, router, chain = _testbed()
    params = PAPER_PARAMS.with_(t_ns=t_ns)
    simulator = MulticastSimulator(topology, router, params=params)
    n = len(chain)
    kbin = simulator.run(cached_build_kbinomial_tree(chain, optimal_k(n, m)), m).latency
    bino = simulator.run(build_binomial_tree(chain), m).latency
    return round(bino / kbin, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, help="sweep processes")
    parser.add_argument("--checkpoint", default=None, help="chunk journal (resumable re-runs)")
    args = parser.parse_args()

    points = run_sweep(
        ratio,
        {"t_ns": [1.0, 3.0, 6.0], "m": [2, 8, 32]},
        workers=args.workers,
        checkpoint=args.checkpoint,
    )
    headers, rows = sweep_table(points, value_name="binomial/kbinomial")
    n = len(_testbed()[2])
    print(
        render_table(
            headers,
            rows,
            title=f"k-binomial advantage vs NI send overhead ({n - 1} destinations)",
        )
    )
    print(
        "\nThe ratio is driven by the pipeline-step count, so it holds up\n"
        "across NI speeds; absolute latencies (not shown) scale with t_ns."
    )


if __name__ == "__main__":
    main()
