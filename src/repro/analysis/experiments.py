"""Figure/table drivers: everything §5 of the paper reports.

Analytic experiments (Fig. 12, §2.5/§2.6/§3.3.2 artifacts) are exact.
Simulation experiments (Figs. 13–14) follow the paper's protocol —
random destination sets over random irregular 64-host topologies,
up*/down* routing, CCO base ordering, FPFS NIs — with the replication
factor controlled by :class:`ExperimentConfig` (the paper's 30 sets ×
10 topologies is `ExperimentConfig.paper()`; the default is a reduced
but statistically stable 6 × 3 so benches run in minutes; set the
``REPRO_FULL=1`` environment variable to run the paper-size protocol).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.kbinomial import build_kbinomial_tree
from ..core.optimal import optimal_k
from ..core.trees import MulticastTree, build_binomial_tree, build_linear_tree
from ..mcast.orderings import cco_ordering, chain_for
from ..mcast.simulator import MulticastSimulator
from ..network.irregular import build_irregular_network
from ..network.topology import Node, Topology
from ..network.updown import UpDownRouter
from ..nic.fpfs import FPFSInterface
from ..params import PAPER_PARAMS, SystemParams

__all__ = [
    "DEST_AXIS",
    "ExperimentConfig",
    "PACKET_AXIS",
    "TREE_KINDS",
    "TreeKind",
    "latency_point",
    "sweep_latencies",
    "sweep_latency",
    "sweep_latency_summary",
    "fig12a_optimal_k",
    "fig12b_optimal_k",
    "fig13a_latency_vs_m",
    "fig13b_latency_vs_n",
    "fig14a_comparison_vs_m",
    "fig14b_comparison_vs_n",
    "full_protocol_requested",
]

#: The x axes of Figs. 13–14: message length in packets (13a, 14a) and
#: multicast set size in destinations (13b, 14b).
PACKET_AXIS: Tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32)
DEST_AXIS: Tuple[int, ...] = (7, 15, 23, 31, 39, 47, 55, 63)

#: Tree selector: (chain, m) -> MulticastTree.
TreeKind = Callable[[Sequence[Node], int], MulticastTree]


def kbinomial_optimal(chain: Sequence[Node], m: int) -> MulticastTree:
    """The paper's tree: k-binomial with Theorem 3's optimal k."""
    return build_kbinomial_tree(chain, optimal_k(len(chain), m))


def binomial(chain: Sequence[Node], m: int) -> MulticastTree:
    """The conventional binomial baseline."""
    return build_binomial_tree(chain)


def linear(chain: Sequence[Node], m: int) -> MulticastTree:
    """The chain baseline."""
    return build_linear_tree(chain)


#: Name -> tree selector, so parallel sweep tasks can carry a tree kind
#: as a picklable string instead of a function object.
TREE_KINDS: Dict[str, TreeKind] = {
    "kbinomial": kbinomial_optimal,
    "binomial": binomial,
    "linear": linear,
}


def full_protocol_requested() -> bool:
    """True when REPRO_FULL=1 asks for the paper's 30×10 replication."""
    return os.environ.get("REPRO_FULL", "") == "1"


@dataclass(frozen=True)
class ExperimentConfig:
    """Replication protocol for the simulation experiments.

    Attributes
    ----------
    n_topologies:
        Random irregular topologies per data point.
    n_dest_sets:
        Random destination sets per topology.
    seed:
        Master seed; topology i uses ``seed + i``, destination sets are
        drawn from a per-topology RNG.
    params:
        Timing parameters.
    """

    n_topologies: int = 3
    n_dest_sets: int = 6
    seed: int = 1997
    params: SystemParams = field(default_factory=lambda: PAPER_PARAMS)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's §5.2 protocol: 30 destination sets × 10 topologies."""
        return cls(n_topologies=10, n_dest_sets=30)

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Paper protocol when REPRO_FULL=1, reduced default otherwise."""
        return cls.paper() if full_protocol_requested() else cls()

    @classmethod
    def bench(cls) -> "ExperimentConfig":
        """Bench-sized protocol: paper's 30x10 when REPRO_FULL=1, else a
        quick 2 topologies x 4 destination sets so the full bench suite
        finishes in minutes."""
        return cls.paper() if full_protocol_requested() else cls(n_topologies=2, n_dest_sets=4)


@lru_cache(maxsize=64)
def _testbed(seed: int) -> Tuple[Topology, UpDownRouter, Tuple[Node, ...]]:
    """One irregular 64-host topology + router + CCO base ordering."""
    topology = build_irregular_network(seed=seed)
    router = UpDownRouter(topology)
    ordering = tuple(cco_ordering(topology, router))
    return topology, router, ordering


def _destination_sets(
    hosts: Sequence[Node], n_dests: int, count: int, rng: random.Random
) -> List[Tuple[Node, Tuple[Node, ...]]]:
    """``count`` random (source, destinations) draws of size ``n_dests``."""
    if n_dests >= len(hosts):
        raise ValueError(f"cannot draw {n_dests} destinations from {len(hosts)} hosts")
    draws = []
    for _ in range(count):
        picked = rng.sample(list(hosts), n_dests + 1)
        draws.append((picked[0], tuple(picked[1:])))
    return draws


def sweep_latencies(
    n_dests: int,
    m: int,
    tree_kind: TreeKind,
    config: ExperimentConfig,
    ni_class=FPFSInterface,
) -> List[float]:
    """All simulated latencies (µs) for one (n_dests, m, tree) point.

    ``config.n_topologies`` × ``config.n_dest_sets`` runs, exactly the
    paper's protocol shape.  Use :func:`sweep_latency` for the mean or
    :func:`sweep_latency_summary` for spread/confidence statistics.
    """
    latencies: List[float] = []
    for t in range(config.n_topologies):
        topology, router, ordering = _testbed(config.seed + t)
        simulator = MulticastSimulator(topology, router, config.params, ni_class=ni_class)
        rng = random.Random(f"{config.seed}:{t}:{n_dests}:destsets")
        for source, dests in _destination_sets(
            topology.hosts, n_dests, config.n_dest_sets, rng
        ):
            chain = chain_for(source, dests, ordering)
            tree = tree_kind(chain, m)
            latencies.append(simulator.run(tree, m).latency)
    return latencies


def sweep_latency(
    n_dests: int,
    m: int,
    tree_kind: TreeKind,
    config: ExperimentConfig,
    ni_class=FPFSInterface,
) -> float:
    """Mean simulated latency (µs) for one (n_dests, m, tree) point."""
    latencies = sweep_latencies(n_dests, m, tree_kind, config, ni_class=ni_class)
    return sum(latencies) / len(latencies)


def sweep_latency_summary(
    n_dests: int,
    m: int,
    tree_kind: TreeKind,
    config: ExperimentConfig,
    ni_class=FPFSInterface,
):
    """Full :class:`~repro.analysis.stats.Summary` (mean, std, 95% CI)."""
    from .stats import summarize

    return summarize(sweep_latencies(n_dests, m, tree_kind, config, ni_class=ni_class))


# ---------------------------------------------------------------------------
# Fig. 12 — analytic optimal k
# ---------------------------------------------------------------------------

def fig12a_optimal_k(
    dest_counts: Sequence[int] = (63, 47, 31, 15),
    m_values: Sequence[int] = tuple(range(1, 36)),
) -> Dict[int, List[int]]:
    """Fig. 12(a): optimal k vs number of packets, per destination count."""
    return {
        d: [optimal_k(d + 1, m) for m in m_values] for d in dest_counts
    }


def fig12b_optimal_k(
    m_values: Sequence[int] = (1, 2, 4, 8),
    n_values: Sequence[int] = tuple(range(2, 65)),
) -> Dict[int, List[int]]:
    """Fig. 12(b): optimal k vs multicast set size, per packet count."""
    return {
        m: [optimal_k(n, m) for n in n_values] for m in m_values
    }


# ---------------------------------------------------------------------------
# Fig. 13 / Fig. 14 — simulated latency grids, on the sweep engine
# ---------------------------------------------------------------------------

def latency_point(d: int, m: int, tree: str, config: ExperimentConfig) -> float:
    """Picklable per-grid-point measure for the simulated figure sweeps.

    ``tree`` names an entry of :data:`TREE_KINDS`; everything else a
    worker process needs (topologies, routers, orderings) is rebuilt
    there once and memoized by :func:`_testbed`.
    """
    return sweep_latency(d, m, TREE_KINDS[tree], config)


def _latency_grid(
    config: ExperimentConfig,
    dest_counts: Sequence[int],
    m_values: Sequence[int],
    trees: Sequence[str],
    workers: int,
    tracer=None,
    checkpoint=None,
) -> Dict[Tuple[int, int, str], float]:
    """All (d, m, tree) mean latencies, fanned out over ``workers``.

    ``checkpoint`` journals completed chunks (see
    :func:`repro.analysis.sweep.run_sweep`): a killed figure sweep
    resumes from where it died, byte-identically.
    """
    from .sweep import run_sweep

    points = run_sweep(
        partial(latency_point, config=config),
        {"d": list(dest_counts), "m": list(m_values), "tree": list(trees)},
        workers=workers,
        tracer=tracer,
        checkpoint=checkpoint,
    )
    return {(p["d"], p["m"], p["tree"]): p.value for p in points}


def fig13a_latency_vs_m(
    config: ExperimentConfig,
    dest_counts: Sequence[int] = (63, 47, 31, 15),
    m_values: Sequence[int] = PACKET_AXIS,
    workers: int = 1,
    tracer=None,
    checkpoint=None,
) -> Dict[int, List[float]]:
    """Fig. 13(a): k-binomial latency vs m, one curve per dest count."""
    grid = _latency_grid(config, dest_counts, m_values, ("kbinomial",), workers, tracer=tracer, checkpoint=checkpoint)
    return {d: [grid[(d, m, "kbinomial")] for m in m_values] for d in dest_counts}


def fig13b_latency_vs_n(
    config: ExperimentConfig,
    m_values: Sequence[int] = (8, 4, 2, 1),
    dest_counts: Sequence[int] = DEST_AXIS,
    workers: int = 1,
    tracer=None,
    checkpoint=None,
) -> Dict[int, List[float]]:
    """Fig. 13(b): k-binomial latency vs multicast set size, per m."""
    grid = _latency_grid(config, dest_counts, m_values, ("kbinomial",), workers, tracer=tracer, checkpoint=checkpoint)
    return {m: [grid[(d, m, "kbinomial")] for d in dest_counts] for m in m_values}


def fig14a_comparison_vs_m(
    config: ExperimentConfig,
    dest_counts: Sequence[int] = (47, 15),
    m_values: Sequence[int] = PACKET_AXIS,
    workers: int = 1,
    tracer=None,
    checkpoint=None,
) -> Dict[int, Dict[str, List[float]]]:
    """Fig. 14(a): binomial vs optimal k-binomial latency vs m."""
    grid = _latency_grid(config, dest_counts, m_values, ("binomial", "kbinomial"), workers, tracer=tracer, checkpoint=checkpoint)
    return {
        d: {
            tree: [grid[(d, m, tree)] for m in m_values]
            for tree in ("binomial", "kbinomial")
        }
        for d in dest_counts
    }


def fig14b_comparison_vs_n(
    config: ExperimentConfig,
    m_values: Sequence[int] = (8, 2),
    dest_counts: Sequence[int] = DEST_AXIS,
    workers: int = 1,
    tracer=None,
    checkpoint=None,
) -> Dict[int, Dict[str, List[float]]]:
    """Fig. 14(b): binomial vs optimal k-binomial latency vs set size."""
    grid = _latency_grid(config, dest_counts, m_values, ("binomial", "kbinomial"), workers, tracer=tracer, checkpoint=checkpoint)
    return {
        m: {
            tree: [grid[(d, m, tree)] for d in dest_counts]
            for tree in ("binomial", "kbinomial")
        }
        for m in m_values
    }
