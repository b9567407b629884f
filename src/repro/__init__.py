"""repro — reproduction of Kesavan & Panda (ICPP 1997):
"Optimal Multicast with Packetization and Network Interface Support".

The package provides, from scratch:

* :mod:`repro.sim` — a deterministic discrete-event simulation kernel;
* :mod:`repro.network` — irregular switch fabrics and k-ary n-cubes
  with up*/down* and e-cube wormhole routing;
* :mod:`repro.nic` — conventional, FCFS, and FPFS network interfaces;
* :mod:`repro.core` — k-binomial trees, the N(s,k) theory, optimal-k
  selection (Theorem 3), and the pipelined step model (Theorems 1-2);
* :mod:`repro.mcast` — contention-free orderings, depth-contention
  analysis, and the end-to-end multicast simulator;
* :mod:`repro.analysis` — drivers regenerating every figure of §5.

Quickstart::

    from repro import (
        build_irregular_network, UpDownRouter, MulticastSimulator,
        cco_ordering, chain_for, build_kbinomial_tree, optimal_k,
    )

    topo = build_irregular_network(seed=0)
    router = UpDownRouter(topo)
    ordering = cco_ordering(topo, router)
    chain = chain_for(ordering[0], ordering[1:16], ordering)
    tree = build_kbinomial_tree(chain, optimal_k(n=16, m=8))
    result = MulticastSimulator(topo, router).run(tree, num_packets=8)
    print(result.latency, "microseconds")
"""

from .core import (
    MulticastTree,
    OptimalKTable,
    build_binomial_tree,
    build_flat_tree,
    build_kbinomial_tree,
    build_linear_tree,
    compare_buffers,
    conventional_latency_model,
    coverage,
    fpfs_schedule,
    fpfs_total_steps,
    min_k_binomial,
    multicast_latency_model,
    optimal_k,
    optimal_k_exact,
    packet_completion_steps,
    predicted_steps,
    steps_needed,
    theorem2_steps,
)
from .mcast import (
    MulticastResult,
    MulticastSimulator,
    chain_for,
    cco_ordering,
    depth_contention,
    dimension_ordered_chain,
    random_ordering,
)
from .network import (
    EcubeRouter,
    KAryNCube,
    Topology,
    UpDownRouter,
    build_irregular_network,
    host,
    switch,
)
from .machine import Machine
from .nic import ConventionalInterface, FCFSInterface, FPFSInterface, Message, Packet
from .params import PAPER_PARAMS, SystemParams
from .sessions import Session, SessionResult, SessionSetResult, SessionSimulator

__version__ = "1.0.0"


def __getattr__(name: str):
    # AnalyticSurface (and numpy with it) loads on first use; see repro.core.
    if name == "AnalyticSurface":
        from .core.surface import AnalyticSurface

        return AnalyticSurface
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalyticSurface",
    "ConventionalInterface",
    "EcubeRouter",
    "FCFSInterface",
    "FPFSInterface",
    "KAryNCube",
    "Machine",
    "Message",
    "MulticastResult",
    "MulticastSimulator",
    "MulticastTree",
    "OptimalKTable",
    "PAPER_PARAMS",
    "Packet",
    "Session",
    "SessionResult",
    "SessionSetResult",
    "SessionSimulator",
    "SystemParams",
    "Topology",
    "UpDownRouter",
    "build_binomial_tree",
    "build_flat_tree",
    "build_irregular_network",
    "build_kbinomial_tree",
    "build_linear_tree",
    "chain_for",
    "cco_ordering",
    "compare_buffers",
    "conventional_latency_model",
    "coverage",
    "depth_contention",
    "dimension_ordered_chain",
    "fpfs_schedule",
    "fpfs_total_steps",
    "host",
    "min_k_binomial",
    "multicast_latency_model",
    "optimal_k",
    "optimal_k_exact",
    "packet_completion_steps",
    "predicted_steps",
    "random_ordering",
    "steps_needed",
    "switch",
    "theorem2_steps",
    "__version__",
]
