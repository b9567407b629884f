"""Unified telemetry: spans, exporters, metrics, and run manifests.

Every layer of the system measures itself through this package:

* :mod:`repro.obs.tracer` — the span/event API.  A :class:`Tracer`
  records complete spans, instant events, and counter samples on named
  (process, thread) tracks against a pluggable clock, so the same API
  covers *simulated* time (the DES packet lifecycle — the multicast
  simulator points the clock at ``env.now``) and *wall-clock* time
  (sweep chunks, service requests).
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (opens
  directly in Perfetto / ``chrome://tracing``), JSON-lines, and a
  console summary.
* :mod:`repro.obs.metrics` — a registry that unifies the plan
  service's counters/histograms, the :mod:`repro.core.cache` hit
  rates, and sim-side gauges (NI buffer levels) behind one
  :func:`~repro.obs.metrics.MetricsRegistry.snapshot` call.
* :mod:`repro.obs.manifest` — run manifests (params, seed, package
  version, git SHA, timestamps) attached to campaign records, benchmark
  JSON, and exported traces so every number is reproducible from its
  artifact.
* :mod:`repro.obs.profiler` — a sampling wall-clock profiler
  (collapsed-stack / speedscope export) attachable to the sweep
  engine, the plan server, and the session simulator, with a
  :data:`NULL_PROFILER` disabled singleton.
* :mod:`repro.obs.exposition` — Prometheus text-format rendering of
  the metrics registry plus the strict parser that gates it.
* :mod:`repro.obs.slo` — declarative SLOs with fast/slow-window
  burn-rate alerting and a replayable alert log.

Tracing is zero-cost when disabled: emission sites guard on
``tracer.enabled`` before building any arguments, and the shared
:data:`NULL_TRACER` singleton makes "no tracer" a cheap attribute
check rather than a ``None`` test in hot loops.
"""

from .export import (
    to_chrome,
    to_jsonl,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from .exposition import parse_prometheus, render_prometheus, render_prometheus_cluster
from .manifest import git_sha, run_manifest
from .metrics import GLOBAL_METRICS, MetricsRegistry, sanitize_metric_name
from .profiler import NULL_PROFILER, SamplingProfiler
from .slo import BurnRateTracker, SLOAlert, SLOSet, SLOSpec, default_slos
from .tracer import NULL_TRACER, Span, TraceEvent, Tracer, Track, wall_clock_us

__all__ = [
    "BurnRateTracker",
    "GLOBAL_METRICS",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "SLOAlert",
    "SLOSet",
    "SLOSpec",
    "SamplingProfiler",
    "Span",
    "TraceEvent",
    "Tracer",
    "Track",
    "default_slos",
    "git_sha",
    "parse_prometheus",
    "render_prometheus",
    "render_prometheus_cluster",
    "run_manifest",
    "sanitize_metric_name",
    "to_chrome",
    "to_jsonl",
    "trace_summary",
    "wall_clock_us",
    "write_chrome_trace",
    "write_jsonl",
]
