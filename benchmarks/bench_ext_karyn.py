"""A3 — extension: k-binomial multicast on k-ary n-cubes (§4.3.2).

The paper's construction section claims the same machinery applies to
regular networks via dimension-ordered chains.  This benchmark runs the
full comparison on an 8x8 torus and a 4x4x4 cube with e-cube routing:
contention-freedom is verified statically, and the binomial vs
k-binomial ratios mirror the irregular-network results.
"""

from __future__ import annotations

from repro import (
    EcubeRouter,
    KAryNCube,
    MulticastSimulator,
    build_binomial_tree,
    build_kbinomial_tree,
    depth_contention,
    dimension_ordered_chain,
    optimal_k,
)
from repro.analysis import render_table

CUBES = (("8x8 torus", 8, 2), ("4x4x4 torus", 4, 3))
PACKETS = (1, 8, 32)


def measure():
    rows = []
    for name, k_radix, n_dim in CUBES:
        cube = KAryNCube(k_radix, n_dim)
        router = EcubeRouter(cube)
        chain = dimension_ordered_chain(cube)
        simulator = MulticastSimulator(cube, router)
        for m in PACKETS:
            ktree = build_kbinomial_tree(chain, optimal_k(len(chain), m))
            btree = build_binomial_tree(chain)
            contention_free = depth_contention(ktree, router).is_contention_free
            klat = simulator.run(ktree, m).latency
            blat = simulator.run(btree, m).latency
            rows.append(
                [name, m, contention_free, round(klat, 1), round(blat, 1), round(blat / klat, 2)]
            )
    return rows


def test_ext_karyn(benchmark, show):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        render_table(
            ["network", "packets", "contention-free", "k-binomial us", "binomial us", "ratio"],
            rows,
            title="A3: k-binomial multicast on k-ary n-cubes (dimension-ordered chains)",
        )
    )
    for name, m, contention_free, klat, blat, ratio in rows:
        assert contention_free  # Fig. 11 + dimension-ordered chain
        assert ratio >= 0.99
        if m == 32:
            assert ratio > 1.7  # the packetization win carries over
