"""Dynamic group membership for NI-based multicast.

The paper plans one multicast over a *fixed* member set; real groups
churn.  This package makes every layer churn-tolerant without
re-planning from scratch on each change:

* :mod:`~repro.membership.schedule` — seedable, serializable
  membership schedules (who joins/leaves/rejoins, when) plus random
  generators (Poisson churn, flash join, correlated leave).
* :mod:`~repro.membership.amend` — live plan amendment: graft joiners
  into the contention-free chain, prune leavers, and re-run the
  Theorem-3 ``optimal_k`` only when drift crosses an epoch threshold.
  The contract: an amended plan is bit-identical to a cold re-plan
  over the same member set.
* :mod:`~repro.membership.runtime` — drive a schedule through a live
  simulation via the NI ``fault_gate``/``delivery_listener`` hooks,
  with amendment re-multicasts and joiner catch-ups mid-flight.
* :mod:`~repro.membership.sweep` — the churn campaign: sweep scenarios,
  measure delivery to stable members, staleness, and disruption.

The cardinal invariant, inherited from :mod:`repro.faults`: an *empty*
schedule changes nothing — no gates, no listeners, results
byte-identical to the plain simulator.  And the graceful-degradation
contract: every *stable* member (never named by a ``leave``) receives
the complete message under any schedule.
"""

from .amend import (
    AmendedPlan,
    MembershipDelta,
    amend_chain,
    amend_plan,
    amended_request,
    same_tree,
)
from .runtime import ChurnResult, ChurnSimulator
from .schedule import (
    MEMBERSHIP_KINDS,
    MembershipEvent,
    MembershipSchedule,
    correlated_leave_schedule,
    flash_join_schedule,
    poisson_churn_schedule,
)
from .sweep import CHURN, SCENARIOS, churn_point

__all__ = [
    "MEMBERSHIP_KINDS",
    "MembershipEvent",
    "MembershipSchedule",
    "poisson_churn_schedule",
    "flash_join_schedule",
    "correlated_leave_schedule",
    "MembershipDelta",
    "AmendedPlan",
    "amend_chain",
    "amend_plan",
    "amended_request",
    "same_tree",
    "ChurnResult",
    "ChurnSimulator",
    "CHURN",
    "SCENARIOS",
    "churn_point",
]
