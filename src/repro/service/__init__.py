"""The multicast plan service: the paper's theory as a control plane.

Everything below :mod:`repro.core` answers "what is the optimal
multicast tree for (n, m) on this machine?" as a batch computation;
this package turns it into a long-running request/response service —
the role the NI-resident optimal-k table (§4.3.1) plays in hardware,
and the shape dynamic multicast control planes take in the related
work.

Layers, innermost out:

* :mod:`~repro.service.planner` — the pure request → result function:
  :class:`PlanRequest` (``n``, ``m``, :class:`~repro.params.MachineParams`)
  to :class:`PlanResult` (chosen k, per-node FPFS forwarding schedule,
  cost breakdown ``T1 + (m-1)·k_T``, buffer bound ``c·t_sq``), memoized
  through :mod:`repro.core.cache`; and its encoder, what the server
  sends: ``plan_compact_json`` writes the paper's (k, chain) form, k
  and the scalars without the schedule (about 150 bytes at any n),
  which :meth:`PlanResult.from_dict` expands locally.  Its ``_warm``
  twin answers from the memo alone or ``None``.
* :mod:`~repro.service.batching` — :class:`PlanBatcher`: computes a
  cold multi-port plan in one executor hop and collapses identical
  keys in flight into one single-flight computation, whose encoded
  result all its waiters share.
* :mod:`~repro.service.metrics` — :class:`ServiceMetrics`: counters and
  latency histograms (p50/p95/p99) plus the plan-cache hit rates from
  :func:`repro.core.cache.cache_stats`.
* :mod:`~repro.service.server` — :class:`PlanServer`: asyncio
  JSON-lines TCP front end with per-request timeouts, bounded
  admission (explicit ``overloaded`` shed, never unbounded latency),
  graceful drain bounded by ``drain_timeout``, a ``(n - |exclude|) × m``
  work bound at the wire, and the ``amend`` wire type that folds a
  membership delta (:mod:`repro.membership`) into an equivalent plan
  request, so a churn burst of equal deltas costs one computation.  It
  answers a memoized plan and a cold one-port plan in the connection's
  read callback, and writes a cold multi-port plan as the batcher's
  bytes behind the request's id.
* :mod:`~repro.service.client` — :class:`PlanClient` (async) and the
  :func:`plan_remote` / :func:`stats_remote` sync conveniences, which
  return the expanded result, with
  :class:`RetryPolicy` backoff over typed transient failures
  (``unavailable`` / :class:`PlanTimeoutError` / ``overloaded``).
* :mod:`~repro.service.framing` — the line protocol every hop shares:
  one ``MAX_FRAME_BYTES`` limit for readers and writers (an oversize
  answer becomes a ``response_too_large`` error), id-first answers, so
  a plan is encoded once and relayed as bytes, and
  :class:`~repro.service.framing.LineProtocol`, the one
  ``asyncio.Protocol`` that server, router and client connections
  share: each received line is handled in the read callback.
* :mod:`~repro.service.journal` — :class:`RequestJournal`: checksummed
  append-only log of accepted plan requests, one per memo entry they
  warm, replayed through the encoder on restart to pre-warm the memo
  tables the server reads (``recovered_entries`` on the health
  endpoint).

Quickstart::

    repro-mcast serve --port 7017            # terminal 1
    repro-mcast plan -n 64 -m 8 --connect localhost:7017

or in-process::

    from repro.service import PlanRequest, plan
    result = plan(PlanRequest(n=64, m=8))
    print(result.k, result.latency_us)
"""

from .batching import PlanBatcher
from .client import (
    OverloadedError,
    PlanClient,
    PlanServiceError,
    PlanTimeoutError,
    RetryPolicy,
    SourceFailedError,
    StaleMapError,
    amend_remote,
    metrics_remote,
    plan_remote,
    stats_remote,
)
from .journal import RequestJournal
from .metrics import LatencyHistogram, ServiceMetrics
from .planner import NodePlan, PlanRequest, PlanResult, plan
from .server import PlanServer

__all__ = [
    "LatencyHistogram",
    "NodePlan",
    "OverloadedError",
    "PlanBatcher",
    "PlanClient",
    "PlanRequest",
    "PlanResult",
    "PlanServer",
    "PlanServiceError",
    "PlanTimeoutError",
    "RequestJournal",
    "RetryPolicy",
    "ServiceMetrics",
    "SourceFailedError",
    "StaleMapError",
    "amend_remote",
    "metrics_remote",
    "plan",
    "plan_remote",
    "stats_remote",
]
