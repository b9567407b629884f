"""Membership schedules: seedable, serializable churn scenarios in sim time.

A :class:`MembershipSchedule` is an ordered list of
:class:`MembershipEvent`\\ s, each naming a *kind* (``join`` / ``leave``
/ ``rejoin``), a target host, and the simulated time (µs) at which it
takes effect.  Like :class:`repro.faults.FaultSchedule`, schedules are
plain data — no simulator state, lossless canonical JSON
(:meth:`MembershipSchedule.to_json` / :meth:`from_json`), value
hash/equality — so the same schedule replayed against any discipline or
worker count yields the same churn sequence.

Supported kinds (the group-dynamics counterpart of the fault model):

``join``
    The host enters the multicast group at ``time``: it must be caught
    up on the in-flight message (its *staleness* is how long that
    takes) and grafted into the contention-free chain for later plans.
``leave``
    The host departs at ``time``.  A leaving *internal* node starves
    its subtree exactly like a crash — but unlike a crash it is a clean
    membership delta, not a failure, so the repair is an amendment.
``rejoin``
    A previously departed host comes back: its NI is healthy again and
    it must be caught up like a joiner.

Random generators (:func:`poisson_churn_schedule`,
:func:`flash_join_schedule`, :func:`correlated_leave_schedule`) are
seeded and deterministic: the same arguments always produce the same
schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..faults.schedule import EventSchedule

__all__ = [
    "MEMBERSHIP_KINDS",
    "MembershipEvent",
    "MembershipSchedule",
    "poisson_churn_schedule",
    "flash_join_schedule",
    "correlated_leave_schedule",
]

#: Every membership event kind the churn runtime understands.
MEMBERSHIP_KINDS = ("join", "leave", "rejoin")


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change: who, when, and in which direction.

    ``node`` is a host node (``("host", i)``-style tuple).  Events are
    validated on construction so a schedule cannot silently carry a
    malformed entry.
    """

    #: Simulated time (µs) at which the change takes effect.
    time: float
    #: One of :data:`MEMBERSHIP_KINDS`.
    kind: str
    #: The host joining, leaving, or rejoining.
    node: object

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed event."""
        if self.kind not in MEMBERSHIP_KINDS:
            raise ValueError(
                f"unknown membership kind {self.kind!r}; choose from {MEMBERSHIP_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"membership event time must be >= 0, got {self.time}")

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`)."""
        return {"time": self.time, "kind": self.kind, "node": EventSchedule._thaw(self.node)}

    @classmethod
    def from_dict(cls, payload: dict) -> "MembershipEvent":
        """Parse the wire form back into a :class:`MembershipEvent`."""
        unknown = sorted(set(payload) - {"time", "kind", "node"})
        if unknown:
            raise ValueError(f"unknown MembershipEvent fields: {unknown}")
        return cls(
            time=payload["time"],
            kind=payload["kind"],
            node=EventSchedule._freeze(payload["node"]),
        )


class MembershipSchedule(EventSchedule):
    """An immutable, time-sorted sequence of :class:`MembershipEvent`\\ s.

    Sorted by ``(time, kind, repr(node))``, with the canonical JSON of
    :class:`~repro.faults.schedule.EventSchedule` — the
    replay-determinism contract shared with
    :class:`repro.faults.FaultSchedule`.
    """

    event_type = MembershipEvent
    target_field = "node"

    def joiners(self) -> frozenset:
        """Every host named by a ``join`` or ``rejoin`` event."""
        return frozenset(e.node for e in self.events if e.kind in ("join", "rejoin"))

    def leavers(self) -> frozenset:
        """Every host named by a ``leave`` event."""
        return frozenset(e.node for e in self.events if e.kind == "leave")

    def stable(self, members: Sequence) -> Tuple:
        """The members of ``members`` never named by a ``leave`` event.

        These are the hosts the graceful-degradation contract is about:
        a churn run must deliver the *whole* message to every one of
        them, no matter what joins and leaves happen around them.
        """
        gone = self.leavers()
        return tuple(node for node in members if node not in gone)


# -- generators ---------------------------------------------------------------


def poisson_churn_schedule(
    members: Sequence,
    pool: Sequence,
    *,
    rate: float,
    horizon: float,
    seed: int,
    join_bias: float = 0.5,
    exclude: Sequence = (),
) -> MembershipSchedule:
    """Churn with Poisson arrivals over ``[0, horizon]`` µs.

    Inter-arrival times are exponential with mean ``1/rate`` (rate in
    events/µs); each arrival is a join with probability ``join_bias``
    (else a leave).  The generator tracks group state so every event is
    *legal*: joins draw from the hosts currently outside the group
    (``pool`` plus earlier leavers — a returning leaver is emitted as
    ``rejoin``), leaves draw from the current members minus ``exclude``
    (pass the multicast source there — a departing source is a
    different experiment, see
    :class:`~repro.membership.amend.SourceFailedError`).  Deterministic
    for fixed arguments: one :class:`random.Random` seeded with
    ``seed`` drives every draw.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not (0.0 <= join_bias <= 1.0):
        raise ValueError(f"join_bias must be in [0, 1], got {join_bias}")
    protected = set(exclude)
    inside = [m for m in members]
    outside = [h for h in pool if h not in set(members)]
    departed: set = set()
    rng = random.Random(seed)
    events = []
    now = rng.expovariate(rate)
    while now <= horizon:
        want_join = rng.random() < join_bias
        can_leave = [h for h in inside if h not in protected]
        if want_join and outside:
            node = outside.pop(rng.randrange(len(outside)))
            kind = "rejoin" if node in departed else "join"
            events.append(MembershipEvent(now, kind, node))
            inside.append(node)
        elif can_leave:
            node = can_leave[rng.randrange(len(can_leave))]
            inside.remove(node)
            departed.add(node)
            outside.append(node)
            events.append(MembershipEvent(now, "leave", node))
        now += rng.expovariate(rate)
    return MembershipSchedule(tuple(events))


def flash_join_schedule(
    joiners: Sequence,
    *,
    at: float,
    spacing: float = 0.0,
    seed: int = 0,
) -> MembershipSchedule:
    """Every host of ``joiners`` joins at (or right after) time ``at``.

    The flash-crowd counterpart of the sessions arrival model: a burst
    of joins is exactly the load pattern the single-flight ``amend``
    dedupe must absorb without a re-plan storm.  ``spacing`` µs
    separates successive joins (0 = all simultaneous); the join order
    is a seeded shuffle so no host is systematically first.
    """
    if at < 0:
        raise ValueError(f"at must be >= 0, got {at}")
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    order = list(joiners)
    random.Random(seed).shuffle(order)
    events = tuple(
        MembershipEvent(at + index * spacing, "join", node)
        for index, node in enumerate(order)
    )
    return MembershipSchedule(events)


def correlated_leave_schedule(
    members: Sequence,
    *,
    at: float,
    fraction: float,
    seed: int,
    exclude: Sequence = (),
) -> MembershipSchedule:
    """A correlated batch departure: ``fraction`` of the group at once.

    Models a rack/switch-domain event seen as membership (the hosts
    *left*, they did not crash): a seeded sample of
    ``ceil(fraction * len(members))`` hosts (minus ``exclude``) all
    leave at ``at`` — the adversarial amendment, since a whole chain
    segment vanishes in one delta.
    """
    if at < 0:
        raise ValueError(f"at must be >= 0, got {at}")
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    eligible = [m for m in members if m not in set(exclude)]
    if not eligible:
        raise ValueError("no eligible leavers after exclusions")
    count = max(1, min(len(eligible), round(fraction * len(eligible))))
    picked = random.Random(seed).sample(eligible, count)
    return MembershipSchedule(
        tuple(MembershipEvent(at, "leave", node) for node in picked)
    )
