"""The paper's contribution: k-binomial multicast trees and their theory.

Quick tour::

    from repro.core import (
        build_kbinomial_tree, build_binomial_tree, optimal_k,
        fpfs_total_steps, predicted_steps,
    )

    chain = list(range(16))             # source + 15 destinations
    k = optimal_k(n=16, m=8)            # Theorem 3
    tree = build_kbinomial_tree(chain, k)
    steps = fpfs_total_steps(tree, m=8) # exact pipelined schedule
"""

from .buffers import BufferComparison, compare_buffers, fcfs_buffer_time, fpfs_buffer_time
from .cache import (
    CacheStats,
    cache_stats,
    cached_build_kbinomial_tree,
    cached_fpfs_total_steps,
    cached_kbinomial_steps,
    cached_steps_needed,
    clear_caches,
    register_cache,
)
from .kbinomial import (
    build_kbinomial_tree,
    coverage,
    coverage_table,
    min_k_binomial,
    one_port_shape,
    root_fanout,
    split_segment,
    steps_needed,
)
from .optimal import (
    OptimalKTable,
    linear_tree_steps,
    optimal_k,
    optimal_k_exact,
    predicted_steps,
)
from .related import decoster_latency, decoster_optimal_packet_size
from .render import render_tree, tree_stats
from .pipeline import (
    conventional_latency_model,
    fcfs_schedule,
    fcfs_steps,
    fcfs_total_steps,
    fpfs_first_last,
    fpfs_schedule,
    fpfs_steps,
    fpfs_total_steps,
    multicast_latency_model,
    packet_completion_steps,
    theorem2_steps,
)
from .trees import (
    MulticastTree,
    build_binomial_tree,
    build_flat_tree,
    build_linear_tree,
)
from .validation import (
    check_chain_locality,
    check_covers,
    check_fanout_cap,
    check_kbinomial_depth,
)


def __getattr__(name: str):
    # AnalyticSurface needs numpy, which nothing else on the import path
    # of the CLI, the plan service or the cluster does: load it on first use.
    if name == "AnalyticSurface":
        from .surface import AnalyticSurface

        return AnalyticSurface
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalyticSurface",
    "BufferComparison",
    "CacheStats",
    "MulticastTree",
    "OptimalKTable",
    "build_binomial_tree",
    "build_flat_tree",
    "build_kbinomial_tree",
    "build_linear_tree",
    "cache_stats",
    "cached_build_kbinomial_tree",
    "cached_fpfs_total_steps",
    "cached_kbinomial_steps",
    "cached_steps_needed",
    "check_chain_locality",
    "check_covers",
    "check_fanout_cap",
    "check_kbinomial_depth",
    "clear_caches",
    "register_cache",
    "compare_buffers",
    "conventional_latency_model",
    "coverage",
    "coverage_table",
    "decoster_latency",
    "decoster_optimal_packet_size",
    "fcfs_schedule",
    "fcfs_steps",
    "fcfs_total_steps",
    "fcfs_buffer_time",
    "fpfs_buffer_time",
    "fpfs_first_last",
    "fpfs_schedule",
    "fpfs_steps",
    "fpfs_total_steps",
    "linear_tree_steps",
    "min_k_binomial",
    "multicast_latency_model",
    "one_port_shape",
    "optimal_k",
    "optimal_k_exact",
    "packet_completion_steps",
    "predicted_steps",
    "render_tree",
    "root_fanout",
    "split_segment",
    "steps_needed",
    "theorem2_steps",
    "tree_stats",
]
