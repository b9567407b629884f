"""Fault schedules: seedable, serializable failure scenarios in sim time.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`\\ s,
each naming a *kind*, a *target*, and the simulated time (µs) at which
it strikes.  Schedules are plain data — they carry no simulator state,
serialize losslessly to JSON (:meth:`FaultSchedule.to_json` /
:meth:`from_json`), and hash/compare by value — so the same schedule
file replayed against any NI discipline or worker count yields the
same failure sequence, which is what makes chaos runs reproducible.

Supported kinds (the threat model of an NI-carried multicast):

``node_crash``
    The host's NI dies at ``time``: its send/receive engines drop every
    subsequent packet, which starves the whole subtree behind it.
``ni_stall``
    The NI coprocessor freezes for ``duration`` µs (e.g. a firmware GC
    or PCI backpressure); queued packets wait, nothing is lost.
``ni_slowdown``
    The NI's per-packet overheads ``t_ns``/``t_nr`` are multiplied by
    ``factor`` for ``duration`` µs (``None`` = permanently).
``link_drop``
    Packets whose wormhole route crosses the target channel — a
    ``(u, v)`` channel key, or a host node meaning every channel that
    touches it — are lost after acquisition (CRC-style corruption).
``link_degrade``
    Traversals of the target channel pay ``delay_us`` extra µs.
``buffer_exhaustion``
    The NI's forwarding pool shrinks to ``capacity`` packets; arrivals
    that would need a forwarding slot beyond it are dropped.

Random generators (:func:`poisson_schedule`,
:func:`targeted_subtree_schedule`, :func:`worst_case_root_child`) are
seeded and deterministic: the same arguments always produce the same
schedule.

:class:`EventSchedule` is the codec both schedule kinds share (this
one and :class:`repro.membership.MembershipSchedule`): sorted event
storage, time clipping and one canonical JSON wire form.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Optional, Sequence, Tuple

__all__ = [
    "EventSchedule",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "poisson_schedule",
    "targeted_subtree_schedule",
    "worst_case_root_child",
]

#: Every fault kind the injector understands.
FAULT_KINDS = (
    "node_crash",
    "ni_stall",
    "ni_slowdown",
    "link_drop",
    "link_degrade",
    "buffer_exhaustion",
)

#: Kinds whose target is a host node (the rest target channels, though
#: link faults also accept a host node meaning "all its channels").
_NODE_KINDS = frozenset(
    {"node_crash", "ni_stall", "ni_slowdown", "buffer_exhaustion"}
)


@dataclass(frozen=True)
class EventSchedule:
    """An immutable, time-sorted sequence of timed events, as plain data.

    Subclasses name their event class (``event_type``, with
    ``to_dict``/``from_dict``) and the event attribute that names the
    event's target (``target_field``).  Events are stored sorted by
    ``(time, kind, repr(target))`` so two schedules built from the same
    events in any order compare equal and serialize identically — the
    replay-determinism contract.
    """

    events: Tuple = field(default_factory=tuple)

    event_type: ClassVar[type]
    target_field: ClassVar[str]

    def __post_init__(self) -> None:
        target = self.target_field
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind, repr(getattr(e, target))))
        )
        object.__setattr__(self, "events", ordered)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def until(self, time: float) -> "EventSchedule":
        """The sub-schedule of events at or before ``time``."""
        return type(self)(tuple(e for e in self.events if e.time <= time))

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`)."""
        return {"version": 1, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: dict) -> "EventSchedule":
        """Parse the wire form back into a schedule."""
        version = payload.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported {cls.__name__} version {version}")
        return cls(tuple(cls.event_type.from_dict(e) for e in payload.get("events", ())))

    def to_json(self) -> str:
        """Canonical JSON text (stable across processes and runs)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EventSchedule":
        """Parse :meth:`to_json` output back into a schedule."""
        return cls.from_dict(json.loads(text))

    @staticmethod
    def _freeze(value):
        """JSON round-trip turns tuples into lists; undo that recursively."""
        if isinstance(value, list):
            return tuple(EventSchedule._freeze(v) for v in value)
        return value

    @staticmethod
    def _thaw(value):
        """Inverse of :meth:`_freeze` for serialization (tuples → lists)."""
        if isinstance(value, tuple):
            return [EventSchedule._thaw(v) for v in value]
        return value


@dataclass(frozen=True)
class FaultEvent:
    """One failure: what breaks, when, and how badly.

    ``target`` is a host node (``("host", i)``-style tuple) for NI
    faults, or a channel key / host node for link faults.  Unused
    fields for a kind must stay at their defaults — :meth:`validate`
    enforces per-kind requirements so a schedule cannot silently carry
    a meaningless parameter.
    """

    #: Simulated time (µs) at which the fault strikes.
    time: float
    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Host node or channel key (see class docstring).
    target: object
    #: Transient window in µs; ``None`` = permanent (where allowed).
    duration: Optional[float] = None
    #: ``ni_slowdown`` multiplier on t_ns/t_nr (> 1).
    factor: Optional[float] = None
    #: ``buffer_exhaustion`` forwarding-pool cap (>= 0).
    capacity: Optional[int] = None
    #: ``link_degrade`` extra µs per traversal (> 0).
    delay_us: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed event."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind == "ni_stall":
            if self.duration is None or self.duration <= 0:
                raise ValueError("ni_stall needs a positive duration")
        if self.kind == "ni_slowdown":
            if self.factor is None or self.factor <= 1.0:
                raise ValueError("ni_slowdown needs factor > 1")
            if self.duration is not None and self.duration <= 0:
                raise ValueError("ni_slowdown duration must be positive (or None)")
        if self.kind == "buffer_exhaustion":
            if self.capacity is None or self.capacity < 0:
                raise ValueError("buffer_exhaustion needs capacity >= 0")
        if self.kind == "link_degrade":
            if self.delay_us is None or self.delay_us <= 0:
                raise ValueError("link_degrade needs delay_us > 0")
        if self.kind in ("node_crash",) and self.duration is not None:
            raise ValueError("node_crash is permanent; duration must be None")

    @property
    def targets_node(self) -> bool:
        """Does this event target a host NI (vs a channel)?"""
        return self.kind in _NODE_KINDS

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`)."""
        out = {"time": self.time, "kind": self.kind, "target": EventSchedule._thaw(self.target)}
        for name in ("duration", "factor", "capacity", "delay_us"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        """Parse the wire form back into a :class:`FaultEvent`."""
        known = {"time", "kind", "target", "duration", "factor", "capacity", "delay_us"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown FaultEvent fields: {unknown}")
        return cls(
            time=payload["time"],
            kind=payload["kind"],
            target=EventSchedule._freeze(payload["target"]),
            duration=payload.get("duration"),
            factor=payload.get("factor"),
            capacity=payload.get("capacity"),
            delay_us=payload.get("delay_us"),
        )


class FaultSchedule(EventSchedule):
    """An immutable, time-sorted sequence of :class:`FaultEvent`\\ s."""

    event_type = FaultEvent
    target_field = "target"

    def node_targets(self) -> frozenset:
        """Every host node named by an NI-level event."""
        return frozenset(e.target for e in self.events if e.targets_node)


# -- generators ---------------------------------------------------------------


def poisson_schedule(
    hosts: Sequence,
    *,
    rate: float,
    horizon: float,
    seed: int,
    kinds: Sequence[str] = ("node_crash", "ni_stall", "link_drop"),
    stall_duration: float = 50.0,
    slow_factor: float = 4.0,
    degrade_delay_us: float = 5.0,
    buffer_capacity: int = 1,
    exclude: Sequence = (),
) -> FaultSchedule:
    """Faults with Poisson arrivals over ``[0, horizon]`` µs.

    Inter-arrival times are exponential with mean ``1/rate`` (rate in
    faults/µs); each arrival picks a kind and a target host uniformly
    from ``hosts`` minus ``exclude`` (pass the multicast source there —
    a dead source is a different experiment than a dead subtree).
    Deterministic for fixed arguments: one :class:`random.Random`
    seeded with ``seed`` drives every draw.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    pool = [h for h in hosts if h not in set(exclude)]
    if not pool:
        raise ValueError("no eligible fault targets after exclusions")
    rng = random.Random(seed)
    events = []
    now = rng.expovariate(rate)
    while now <= horizon:
        kind = rng.choice(list(kinds))
        target = rng.choice(pool)
        if kind == "ni_stall":
            events.append(FaultEvent(now, kind, target, duration=stall_duration))
        elif kind == "ni_slowdown":
            events.append(
                FaultEvent(now, kind, target, duration=stall_duration, factor=slow_factor)
            )
        elif kind == "buffer_exhaustion":
            events.append(FaultEvent(now, kind, target, capacity=buffer_capacity))
        elif kind == "link_degrade":
            events.append(FaultEvent(now, kind, target, delay_us=degrade_delay_us))
        else:  # node_crash, link_drop
            events.append(FaultEvent(now, kind, target))
        now += rng.expovariate(rate)
    return FaultSchedule(tuple(events))


def targeted_subtree_schedule(
    tree,
    *,
    at: float,
    seed: int = 0,
    kind: str = "node_crash",
) -> FaultSchedule:
    """Kill one random *internal* node of ``tree`` at time ``at``.

    Crashing an internal (forwarding) node starves its whole subtree —
    the "what happens to ``T_1 + (m-1)·k_T`` when a subtree dies
    mid-message?" experiment.  Falls back to a random destination when
    the tree has no internal nodes (e.g. a flat tree).
    """
    internal = [
        n for n in tree.nodes() if n != tree.root and tree.children(n)
    ]
    pool = internal or tree.destinations()
    if not pool:
        raise ValueError("tree has no destinations to fail")
    target = random.Random(seed).choice(pool)
    return FaultSchedule((FaultEvent(at, kind, target),))


def worst_case_root_child(tree, *, at: float, kind: str = "node_crash") -> FaultSchedule:
    """Kill the root's *first* child at time ``at``.

    In the Fig. 11 construction the first child owns the largest
    segment (capacity ``N(s-1, k)``), so this is the adversarial
    single-node failure: the biggest possible subtree dies.
    """
    children = tree.children(tree.root)
    if not children:
        raise ValueError("tree root has no children")
    return FaultSchedule((FaultEvent(at, kind, children[0]),))
