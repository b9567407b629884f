"""Chaos harness: sweep fault scenarios against multicast plans.

Each grid point runs one multicast on the 64-host irregular testbed
under one named fault scenario and reports a flat JSON-safe record:
coverage (destinations that got the whole message), delivery ratio,
completion skew, drop counts by cause, and — when nodes crashed — the
re-plan over the survivors (:func:`~repro.membership.amend.amend_plan`
with the dead subtrees as leavers).

Scenarios (:data:`SCENARIOS`):

``baseline``
    Empty schedule; the control row every survival curve is read
    against (coverage must be 1.0, zero drops).
``root_child``
    :func:`~repro.faults.schedule.worst_case_root_child` — the
    adversarial single crash (the biggest subtree dies).
``subtree``
    :func:`~repro.faults.schedule.targeted_subtree_schedule` — a
    random internal forwarding node dies mid-message.
``poisson``
    :func:`~repro.faults.schedule.poisson_schedule` — mixed faults
    (crash / stall / link drop) with Poisson arrivals over the chain.

:data:`CHAOS` declares the scenario × seed grid as a
:class:`~repro.analysis.campaign.Campaign`: sweep, survival table,
smoke and the delivery-coverage SLO replay come from there.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..analysis.campaign import Campaign
from ..analysis.experiments import _testbed
from ..core.kbinomial import build_kbinomial_tree
from ..core.optimal import optimal_k
from ..mcast.orderings import chain_for
from .inject import FaultyMulticastSimulator
from .repair import repair_coverage, unreachable_set
from .schedule import (
    FaultSchedule,
    poisson_schedule,
    targeted_subtree_schedule,
    worst_case_root_child,
)

__all__ = ["CHAOS", "SCENARIOS", "chaos_point"]

#: Named fault scenarios the harness understands.
SCENARIOS = ("baseline", "root_child", "subtree", "poisson")

#: Simulated time (µs) at which targeted crashes strike — past the
#: source's t_s hand-off (12.5 µs), so the message is mid-flight.
FAULT_AT = 25.0
#: Poisson scenario: fault arrival rate (faults/µs) and window (µs).
POISSON_RATE = 0.05
POISSON_HORIZON = 80.0


def _scenario_schedule(scenario: str, tree, chain, seed: int) -> FaultSchedule:
    if scenario == "baseline":
        return FaultSchedule()
    if scenario == "root_child":
        return worst_case_root_child(tree, at=FAULT_AT)
    if scenario == "subtree":
        return targeted_subtree_schedule(tree, at=FAULT_AT, seed=seed)
    if scenario == "poisson":
        return poisson_schedule(
            chain,
            rate=POISSON_RATE,
            horizon=POISSON_HORIZON,
            seed=seed,
            exclude=(chain[0],),
        )
    raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def chaos_point(scenario: str, seed: int, dests: int, m: int) -> dict:
    """One chaos run; pure function of its arguments (picklable, JSON-safe).

    Builds the standard testbed for ``seed``, draws one (source,
    destinations) set, plans the Theorem-3 k-binomial tree, applies the
    scenario's schedule, and measures degraded-mode delivery.  Crashed
    nodes additionally get a re-plan over the survivors: the dead
    subtrees leave the plan through
    :func:`~repro.membership.amend.amend_plan`.
    """
    # membership.amend imports faults.repair, so a module-level import
    # here would make ``import repro.membership`` circular.
    from ..membership.amend import MembershipDelta, amend_plan

    topology, router, ordering = _testbed(1997 + seed)
    rng = random.Random(f"chaos:{seed}:{dests}")
    picked = rng.sample(list(topology.hosts), dests + 1)
    chain = chain_for(picked[0], picked[1:], ordering)
    k = optimal_k(len(chain), m)
    tree = build_kbinomial_tree(chain, k)
    schedule = _scenario_schedule(scenario, tree, chain, seed)

    simulator = FaultyMulticastSimulator(topology, router, schedule=schedule)
    result = simulator.run_degraded(tree, m)

    crashed = [e.target for e in schedule if e.kind == "node_crash"]
    repair = None
    if crashed:
        delta = MembershipDelta(leaves=tuple(unreachable_set(tree, crashed)))
        plan = amend_plan(tree, chain, delta, m, base_ordering=ordering)
        repair = {
            "survivors": len(plan.chain),
            "lost": len(plan.departed),
            "k": plan.k,
            "t1": plan.t1,
            "total_steps": plan.total_steps,
            "original_steps": plan.original_steps,
            "coverage": repair_coverage(plan.chain, chain),
        }
    return {
        "scenario": scenario,
        "seed": seed,
        "dests": dests,
        "m": m,
        "k": k,
        "events": len(schedule),
        "coverage": result.coverage,
        "delivery_ratio": result.delivery_ratio,
        "packets_delivered": result.packets_delivered,
        "packets_expected": result.packets_expected,
        "complete_destinations": len(result.complete_destinations),
        "lost_destinations": len(result.lost_destinations),
        "completion_time": result.completion_time,
        "completion_skew": result.completion_skew,
        "dropped": result.dropped,
        "repair": repair,
    }




def _survival_row(r: dict) -> list:
    repair = r.get("repair")
    dropped = r.get("dropped") or {}
    return [
        r["scenario"],
        r["seed"],
        r["events"],
        f"{r['coverage']:.3f}",
        f"{r['delivery_ratio']:.3f}",
        round(r["completion_time"], 1),
        sum(dropped.values()),
        "-" if repair is None else repair["k"],
        "-" if repair is None else repair["total_steps"],
    ]


def _check_smoke(records: List[dict]) -> None:
    """Baseline fully delivered with zero drops; every fault scenario
    still reaches a nonzero fraction of destinations; any crash yields
    a repair plan."""
    by_scenario: Dict[str, dict] = {r["scenario"]: r for r in records}
    base = by_scenario["baseline"]
    assert base["coverage"] == 1.0, f"baseline lost destinations: {base}"
    assert sum((base["dropped"] or {}).values()) == 0, f"baseline dropped packets: {base}"
    for record in records:
        assert record["complete_destinations"] > 0, f"nobody survived: {record}"
        if record["scenario"] == "root_child":
            assert record["coverage"] < 1.0, f"worst-case crash lost nothing: {record}"
            assert record["repair"] is not None and record["repair"]["survivors"] >= 2


def _coverage_events(record: dict, bound: float):
    """Each record's destinations as weighted good/bad coverage events:
    a ``baseline`` run stays silent, while the adversarial
    ``root_child`` crash burns the 1% error budget and fires."""
    good = int(record.get("complete_destinations", 0))
    bad = int(record.get("lost_destinations", 0))
    if good:
        yield True, good
    if bad:
        yield False, bad


#: The chaos campaign: every scenario × seed against the optimal plan.
CHAOS = Campaign(
    name="chaos",
    point=chaos_point,
    axes=(("scenario", SCENARIOS), ("seed", (0, 1, 2))),
    columns=(
        "scenario", "seed", "faults", "coverage", "delivery",
        "done us", "dropped", "re-k", "re-steps",
    ),
    row=_survival_row,
    title="chaos survival: fault scenarios vs the optimal k-binomial plan",
    smoke_axes={},
    smoke_kwargs={"dests": 15, "m": 4},
    smoke_check=_check_smoke,
    smoke_ok="chaos smoke OK: baseline clean, every fault scenario survived",
    slo="delivery_coverage",
    slo_events=_coverage_events,
)
