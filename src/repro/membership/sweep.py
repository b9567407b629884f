"""Churn harness: sweep membership scenarios against live multicasts.

Each grid point runs one multicast on the 64-host irregular testbed
under one named churn scenario and reports a flat JSON-safe record:
delivery to stable members (the graceful-degradation headline), joiner
staleness, disruption windows, amendment/catch-up counts, and drops at
departed members' gates.

Scenarios (:data:`SCENARIOS`):

``baseline``
    Empty schedule; the control row (delivery 1.0, zero churn, zero
    drops — and bit-identical to the plain simulator).
``poisson``
    :func:`~repro.membership.schedule.poisson_churn_schedule` — mixed
    joins/leaves/rejoins with Poisson arrivals (the acceptance
    scenario: stable members must still see 100% delivery).
``flash_join``
    :func:`~repro.membership.schedule.flash_join_schedule` — a burst
    of joiners lands mid-message (the amend-dedupe load pattern).
``correlated_leave``
    :func:`~repro.membership.schedule.correlated_leave_schedule` — a
    fraction of the group departs at once (the adversarial amendment).

:data:`CHURN` declares the scenario × seed grid as a
:class:`~repro.analysis.campaign.Campaign`, like the chaos harness it
mirrors: sweep, delivery table and smoke come from there.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..analysis.campaign import Campaign
from ..analysis.experiments import _testbed
from .runtime import ChurnSimulator
from .schedule import (
    MembershipSchedule,
    correlated_leave_schedule,
    flash_join_schedule,
    poisson_churn_schedule,
)

__all__ = ["CHURN", "SCENARIOS", "churn_point"]

#: Named churn scenarios the harness understands.
SCENARIOS = ("baseline", "poisson", "flash_join", "correlated_leave")

#: Simulated time (µs) at which targeted churn strikes — past the
#: source's t_s hand-off, so the message is mid-flight.
CHURN_AT = 25.0
#: Poisson scenario: churn arrival rate (events/µs) and window (µs).
POISSON_RATE = 0.08
POISSON_HORIZON = 100.0
#: Flash-join burst size and inter-join spacing (µs).
FLASH_JOINERS = 4
FLASH_SPACING = 5.0
#: Correlated-leave departure fraction.
LEAVE_FRACTION = 0.25
#: Safety net for degraded runs (µs of simulated time).
TIME_LIMIT = 20_000.0


def _scenario_schedule(
    scenario: str, source, dests: Sequence, pool: Sequence, seed: int
) -> MembershipSchedule:
    if scenario == "baseline":
        return MembershipSchedule()
    if scenario == "poisson":
        return poisson_churn_schedule(
            dests,
            pool,
            rate=POISSON_RATE,
            horizon=POISSON_HORIZON,
            seed=seed,
            exclude=(source,),
        )
    if scenario == "flash_join":
        joiners = list(pool)[:FLASH_JOINERS]
        return flash_join_schedule(
            joiners, at=CHURN_AT, spacing=FLASH_SPACING, seed=seed
        )
    if scenario == "correlated_leave":
        return correlated_leave_schedule(
            dests, at=CHURN_AT, fraction=LEAVE_FRACTION, seed=seed, exclude=(source,)
        )
    raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def churn_point(scenario: str, seed: int, dests: int, m: int) -> dict:
    """One churn run; pure function of its arguments (picklable, JSON-safe).

    Builds the standard testbed for ``seed``, draws one (source,
    destinations) set and a joiner pool, generates the scenario's
    membership schedule, and runs the multicast under churn.
    """
    topology, router, ordering = _testbed(1997 + seed)
    rng = random.Random(f"churn:{seed}:{dests}")
    picked = rng.sample(list(topology.hosts), dests + 1)
    source, destinations = picked[0], picked[1:]
    member_set = set(picked)
    pool = [h for h in ordering if h not in member_set]
    schedule = _scenario_schedule(scenario, source, destinations, pool, seed)

    simulator = ChurnSimulator(
        topology, router, schedule=schedule, base_ordering=ordering
    )
    result = simulator.run_churn(source, destinations, m, time_limit=TIME_LIMIT)

    joins = sum(1 for e in schedule if e.kind in ("join", "rejoin"))
    leaves = sum(1 for e in schedule if e.kind == "leave")
    return {
        "scenario": scenario,
        "seed": seed,
        "dests": dests,
        "m": m,
        "events": len(schedule),
        "joins": joins,
        "leaves": leaves,
        "stable": len(result.stable),
        "delivery_to_stable": result.delivery_to_stable,
        "stable_complete": result.stable_complete,
        "joined": len(result.joined),
        "departed": len(result.departed),
        "amends": result.amends,
        "catch_ups": result.catch_ups,
        "caught_up": len(result.joiner_staleness),
        "mean_staleness": result.mean_staleness,
        "max_disruption": result.max_disruption,
        "completion_time": result.completion_time,
        "dropped": result.dropped,
    }




def _churn_row(r: dict) -> list:
    dropped = r.get("dropped") or {}
    staleness = r.get("mean_staleness")
    return [
        r["scenario"],
        r["seed"],
        r["events"],
        f"{r['delivery_to_stable']:.3f}",
        r["joined"],
        r["departed"],
        r["amends"],
        r["catch_ups"],
        "-" if staleness is None else round(staleness, 1),
        round(r["max_disruption"], 1),
        sum(dropped.values()),
    ]


def _check_smoke(records: List[dict]) -> None:
    """The graceful-degradation contract: every stable member gets the
    whole message in every scenario.  Baseline must also be churn-free
    with zero drops; the Poisson scenario must mix joins and leaves; a
    flash join must catch every joiner up; a correlated leave must
    trigger at least one amendment."""
    by_scenario: Dict[str, dict] = {r["scenario"]: r for r in records}

    for record in records:
        assert record["stable_complete"], f"a stable member lost packets: {record}"
        assert record["delivery_to_stable"] == 1.0, f"degraded stable delivery: {record}"

    base = by_scenario["baseline"]
    assert base["events"] == 0 and base["amends"] == 0, f"baseline churned: {base}"
    assert sum((base["dropped"] or {}).values()) == 0, f"baseline dropped packets: {base}"

    poisson = by_scenario["poisson"]
    assert poisson["joins"] > 0 and poisson["leaves"] > 0, (
        f"poisson scenario must mix joins and leaves: {poisson}"
    )

    flash = by_scenario["flash_join"]
    assert flash["joined"] == FLASH_JOINERS, f"flash join lost joiners: {flash}"
    assert flash["caught_up"] == flash["joined"], f"a joiner never caught up: {flash}"

    correlated = by_scenario["correlated_leave"]
    assert correlated["departed"] >= 1, f"correlated leave departed nobody: {correlated}"
    assert correlated["amends"] >= 1, f"correlated leave never amended: {correlated}"


#: The churn campaign: every membership scenario × seed, mid-multicast.
CHURN = Campaign(
    name="churn",
    point=churn_point,
    axes=(("scenario", SCENARIOS), ("seed", (0, 1, 2))),
    columns=(
        "scenario", "seed", "events", "stable dlv", "joined", "left",
        "amends", "catchup", "stale us", "disrupt us", "dropped",
    ),
    row=_churn_row,
    title="membership churn: delivery to stable members under joins and leaves",
    smoke_axes={},
    smoke_kwargs={"dests": 15, "m": 4},
    smoke_check=_check_smoke,
    smoke_ok=(
        "churn smoke OK: baseline bit-identical, every churn scenario "
        "delivered 100% to stable members"
    ),
)
