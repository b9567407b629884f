"""Fault injection and resilience for NI-based multicast.

The paper's premise — the NI, not the host, carries the multicast —
makes NI stalls, buffer exhaustion, and node/link failures the natural
threat model.  This package asks "what happens to ``T1 + (m-1)·k``
when a subtree dies mid-message?" in four layers:

* :mod:`~repro.faults.schedule` — seedable, serializable fault
  schedules (what breaks, when, how badly) plus random generators.
* :mod:`~repro.faults.inject` — gates that apply a schedule to the
  live DES without forking the NI models; every forwarding discipline
  runs under the same schedule.
* :mod:`~repro.faults.repair` — failure-aware re-planning: rebuild
  the k-binomial tree over the survivors with a fresh Theorem-3 k.
* :mod:`~repro.faults.chaos` — the chaos campaign: sweep scenarios,
  measure survival (coverage, delivery, skew, drops), report repairs.

The cardinal invariant: an *empty* schedule changes nothing — no
gates are installed and results are byte-identical to the fault-free
simulator (``benchmarks/bench_faults_overhead.py`` enforces it).
"""

from .chaos import CHAOS, SCENARIOS, chaos_point
from .inject import DegradedResult, FaultInjector, FaultyMulticastSimulator, LinkFaultState, NIFaultGate
from .repair import (
    RepairPlan,
    SourceFailedError,
    repair_plan,
    surviving_chain,
    unreachable_set,
)
from .schedule import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    poisson_schedule,
    targeted_subtree_schedule,
    worst_case_root_child,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "poisson_schedule",
    "targeted_subtree_schedule",
    "worst_case_root_child",
    "LinkFaultState",
    "NIFaultGate",
    "FaultInjector",
    "DegradedResult",
    "FaultyMulticastSimulator",
    "RepairPlan",
    "SourceFailedError",
    "repair_plan",
    "surviving_chain",
    "unreachable_set",
    "CHAOS",
    "SCENARIOS",
    "chaos_point",
]
