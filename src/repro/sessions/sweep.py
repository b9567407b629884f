"""Session-scenario sweep: schedulers × offered load × seeds.

Each grid point generates one seeded session workload on the 64-host
irregular testbed, runs it under one scheduler, and reports a flat
JSON-safe record: the latency distribution (p50/p95/p99, mean),
queueing delay, slowdown vs. isolated runs, makespan, and contention
gauges.  ``load`` is a dimensionless offered-load multiplier: it
shrinks the flash-crowd window (or batch spacing) and scales the
Poisson rate, so higher load = more simultaneous sessions.

:data:`SESSIONS` declares the scheduler × load × seed grid as a
:class:`~repro.analysis.campaign.Campaign`: sweep (``workers=N``
fan-out, checkpoint/resume, grid-order merge), table, smoke and the
session-slowdown SLO replay come from there.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.campaign import Campaign
from ..analysis.experiments import _testbed
from .arrivals import generate_sessions
from .schedulers import SCHEDULERS
from .simulator import SessionSimulator

__all__ = ["DEFAULT_LOADS", "SESSIONS", "sessions_point"]

#: The three canonical offered-load points of the weekly benchmark.
DEFAULT_LOADS = (0.5, 1.0, 2.0)

#: Flash-crowd window (µs) at load 1.0; load L divides it by L.
BASE_WINDOW = 100.0
#: Poisson arrival rate (sessions/µs) at load 1.0; load L multiplies it.
BASE_RATE = 0.01
#: Batch spacing (µs) at load 1.0; load L divides it.
BASE_SPACING = 150.0
#: Livelock guard for every concurrent run (µs of simulated time).
SAFETY_LIMIT = 1_000_000.0


def _workload(arrival: str, hosts, *, load: float, seed: int, count: int, dests: int, m: int):
    """The seeded session set for one (arrival, load, seed) cell."""
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    if arrival == "flash_crowd":
        return generate_sessions(
            arrival, hosts, count=count, max_dests=dests, packets=m,
            seed=seed, window=BASE_WINDOW / load,
        )
    if arrival == "poisson":
        return generate_sessions(
            arrival, hosts, count=count, dests=dests, packets=m,
            seed=seed, rate=BASE_RATE * load,
        )
    if arrival == "batch":
        return generate_sessions(
            arrival, hosts, count=count, dests=dests, packets=m,
            seed=seed, spacing=BASE_SPACING / load,
        )
    raise ValueError(f"unknown arrival process {arrival!r}")


def sessions_point(
    scheduler: str,
    load: float,
    seed: int,
    *,
    arrival: str = "flash_crowd",
    count: int = 10,
    dests: int = 15,
    m: int = 8,
    max_active: Optional[int] = 2,
    measure_isolated: bool = True,
) -> dict:
    """One concurrent-sessions run; pure function of its arguments.

    Builds the standard testbed for ``seed``, generates the seeded
    workload, runs it under ``scheduler``, and flattens the
    :class:`~repro.sessions.session.SessionSetResult` summary into a
    JSON-safe record (picklable — safe for sweep worker processes).
    """
    topology, router, ordering = _testbed(1997 + seed)
    sessions = _workload(
        arrival, ordering, load=load, seed=seed, count=count, dests=dests, m=m
    )
    simulator = SessionSimulator(
        topology, router, ordering, scheduler=scheduler, max_active=max_active
    )
    result = simulator.run_sessions(
        sessions, time_limit=SAFETY_LIMIT, measure_isolated=measure_isolated
    )
    record = {
        "scheduler": scheduler,
        "load": load,
        "seed": seed,
        "arrival": arrival,
        "count": count,
        "dests": dests,
        "m": m,
        "max_active": max_active,
        "completed": len(result.results),
    }
    record.update(result.summary())
    if measure_isolated:
        # Per-session slowdowns feed the session_slowdown SLO replay
        # (``SESSIONS.alert_log``); the summary only keeps aggregates.
        record["slowdowns"] = [float(s) for s in result.slowdowns]
    return record




def _sessions_row(r: dict) -> list:
    return [
        r["scheduler"],
        r["load"],
        r["seed"],
        int(r["completed"]),
        round(r["mean_latency"], 1),
        round(r["p50_latency"], 1),
        round(r["p95_latency"], 1),
        round(r["p99_latency"], 1),
        round(r["mean_queueing"], 1),
        "-" if "mean_slowdown" not in r else round(r["mean_slowdown"], 2),
        round(r["makespan"], 1),
    ]


def _check_smoke(records: List[dict]) -> None:
    """Every session of every run completes, none finishes faster than
    its isolated baseline (slowdown >= 1), and the flash crowd actually
    contends (mean slowdown > 1 somewhere)."""
    assert records, "sessions smoke produced no records"
    for record in records:
        assert record["completed"] == record["count"], f"sessions lost: {record}"
        assert record["mean_slowdown"] >= 1.0 - 1e-9, f"faster than isolated: {record}"
        assert record["mean_queueing"] >= 0.0, f"negative queueing: {record}"
    contended = max(r["mean_slowdown"] for r in records)
    assert contended > 1.0, f"no contention at load 2.0: {records}"


def _slowdown_events(record: dict, bound: float):
    """Each per-session slowdown (when measured) as one good/bad event
    against the SLO's bound; records without ``slowdowns`` fall back to
    one event on ``max_slowdown`` weighted by the sessions completed."""
    slowdowns = record.get("slowdowns")
    if slowdowns:
        for slowdown in slowdowns:
            yield slowdown <= bound, 1.0
    else:
        weight = max(1, int(record.get("completed", 1)))
        yield record.get("max_slowdown", 0.0) <= bound, weight


#: The sessions campaign: schedulers × offered load × seeds; the smoke
#: is FIFO vs CDA at high offered load.
SESSIONS = Campaign(
    name="sessions",
    point=sessions_point,
    axes=(
        ("scheduler", tuple(sorted(SCHEDULERS))),
        ("load", DEFAULT_LOADS),
        ("seed", (0, 1, 2)),
    ),
    columns=(
        "sched", "load", "seed", "done", "mean us", "p50", "p95", "p99",
        "queue us", "slowdn", "makespan",
    ),
    row=_sessions_row,
    title="concurrent sessions: scheduler comparison vs offered load",
    smoke_axes={"scheduler": ("fifo", "cda"), "load": (2.0,)},
    smoke_kwargs={"count": 6, "dests": 9, "m": 3},
    smoke_check=_check_smoke,
    smoke_ok="sessions smoke OK: every session completed, contention measured",
    slo="session_slowdown",
    slo_events=_slowdown_events,
)
