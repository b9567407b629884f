"""Experiment harness: figure drivers, statistics, table rendering."""

from .experiments import (
    ExperimentConfig,
    fig12a_optimal_k,
    fig12b_optimal_k,
    fig13a_latency_vs_m,
    fig13b_latency_vs_n,
    fig14a_comparison_vs_m,
    fig14b_comparison_vs_n,
    full_protocol_requested,
    sweep_latencies,
    sweep_latency,
    sweep_latency_summary,
)
from .breakdown import LatencyBreakdown, run_breakdown
from .campaign import Campaign, load_records, records_json, write_records
from .export import series_to_csv, write_csv
from .load import zipf_draw, zipf_plan_mix, zipf_weights
from .plot import ascii_plot
from .stats import Summary, summarize
from .sweep import SweepPoint, SweepStore, run_sweep, sweep, sweep_table, workers_from_env
from .tables import render_comparison, render_series, render_table

__all__ = [
    "Campaign",
    "ExperimentConfig",
    "LatencyBreakdown",
    "Summary",
    "SweepPoint",
    "SweepStore",
    "ascii_plot",
    "fig12a_optimal_k",
    "fig12b_optimal_k",
    "fig13a_latency_vs_m",
    "fig13b_latency_vs_n",
    "fig14a_comparison_vs_m",
    "fig14b_comparison_vs_n",
    "full_protocol_requested",
    "load_records",
    "records_json",
    "render_comparison",
    "render_series",
    "render_table",
    "run_breakdown",
    "run_sweep",
    "series_to_csv",
    "summarize",
    "sweep",
    "sweep_latencies",
    "sweep_latency",
    "sweep_latency_summary",
    "sweep_table",
    "workers_from_env",
    "write_csv",
    "write_records",
    "zipf_draw",
    "zipf_plan_mix",
    "zipf_weights",
]
