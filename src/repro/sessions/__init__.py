"""Concurrent multicast sessions: arrivals, contention, scheduling.

The workload layer above the solo simulator: :class:`Session` demands
arrive over time (Poisson / batch / flash-crowd generators), a
pluggable :class:`SessionScheduler` decides admission order onto one
shared fabric (FIFO, round-robin interleave, shortest-session-first,
congestion+dilation-aware), the :class:`SessionArbiter` shares links
and NI ports across whoever is live, and
:meth:`SessionSimulator.run_sessions` reports the per-session latency
distribution (p50/p95/p99, slowdown vs. isolated).  A single admitted
session is bit-identical to a solo
:meth:`~repro.mcast.simulator.MulticastSimulator.run` — the solo path
stays the permanent oracle.
"""

from .arrivals import (
    ARRIVALS,
    batch_sessions,
    flash_crowd_sessions,
    generate_sessions,
    poisson_sessions,
)
from .contention import SessionArbiter
from .metrics import SESSION_METRICS, SessionMetrics
from .schedulers import (
    SCHEDULERS,
    CongestionDilationScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    SessionPlan,
    SessionScheduler,
    ShortestSessionFirst,
    make_scheduler,
)
from .session import Session, SessionResult, SessionSetResult, nearest_rank
from .simulator import SessionSimulator
from .sweep import DEFAULT_LOADS, SESSIONS, sessions_point

__all__ = [
    "ARRIVALS",
    "DEFAULT_LOADS",
    "SCHEDULERS",
    "SESSIONS",
    "SESSION_METRICS",
    "CongestionDilationScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "Session",
    "SessionArbiter",
    "SessionMetrics",
    "SessionPlan",
    "SessionResult",
    "SessionScheduler",
    "SessionSetResult",
    "SessionSimulator",
    "ShortestSessionFirst",
    "batch_sessions",
    "flash_crowd_sessions",
    "generate_sessions",
    "make_scheduler",
    "nearest_rank",
    "poisson_sessions",
    "sessions_point",
]
