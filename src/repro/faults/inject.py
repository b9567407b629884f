"""Apply a :class:`~repro.faults.schedule.FaultSchedule` to a live simulation.

The NI engines in :mod:`repro.nic.interface` — the one send loop and
one receive loop every discipline runs — carry one hook,
``ni.fault_gate``, that is ``None`` on a healthy NI.  This module
provides the gate objects and the driver process that flips them at
the scheduled simulated times, so FPFS, FCFS, conventional and
reliable NIs all run under the *same* schedule without forking any
model:

* :class:`LinkFaultState` — shared channel-level fault map consulted by
  every gate's ``link_gate`` (drops and extra per-traversal delay).
* :class:`NIFaultGate` — per-NI state (crashed / stalled / buffer cap)
  whose generator methods the engines ``yield from`` once per packet.
* :class:`FaultInjector` — parses a schedule into gate flips: it
  installs gates on every NI and runs one driver process that applies
  each :class:`~repro.faults.schedule.FaultEvent` at its time.
* :class:`FaultyMulticastSimulator` — a
  :class:`~repro.mcast.simulator.MulticastSimulator` that attaches an
  injector in ``_post_build`` and adds :meth:`run_degraded`, whose
  lenient collector reports coverage instead of raising when a dead
  subtree never hears the message.

With an *empty* schedule the injector installs nothing at all: every
``fault_gate`` stays ``None`` and no driver process is created, so the
event sequence — and therefore every result — is byte-identical to the
fault-free simulator (asserted by ``bench_faults_overhead``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..mcast.simulator import MulticastSimulator
from ..network.topology import Node
from ..nic.packets import Message, Packet
from ..nic.reliable import ReliableFPFSInterface
from .schedule import FaultSchedule

__all__ = [
    "LinkFaultState",
    "NIFaultGate",
    "FaultInjector",
    "DegradedResult",
    "FaultyMulticastSimulator",
]


class LinkFaultState:
    """Channel-level fault map shared by every gate of one simulation.

    Targets come in two shapes: a *channel key* ``(u, v)`` breaks that
    one channel, a *host node* breaks every channel touching the node
    (the cable was pulled, not one lane).  Degradations accumulate:
    two overlapping ``link_degrade`` events on the same channel charge
    the sum of their delays until each heals.
    """

    def __init__(self) -> None:
        self.dead_links: set = set()
        self.dead_endpoints: set = set()
        self.slow_links: Dict[object, float] = {}
        self.slow_endpoints: Dict[Node, float] = {}

    @property
    def active(self) -> bool:
        return bool(
            self.dead_links or self.dead_endpoints or self.slow_links or self.slow_endpoints
        )

    def drops(self, route) -> bool:
        """Does any channel of ``route`` currently eat packets?"""
        for channel in route:
            if channel in self.dead_links or (channel[1], channel[0]) in self.dead_links:
                return True
            if self.dead_endpoints and (
                channel[0] in self.dead_endpoints or channel[1] in self.dead_endpoints
            ):
                return True
        return False

    def extra_delay(self, route) -> float:
        """Extra µs the route currently pays to degraded channels."""
        total = 0.0
        for channel in route:
            total += self.slow_links.get(channel, 0.0)
            total += self.slow_links.get((channel[1], channel[0]), 0.0)
            total += self.slow_endpoints.get(channel[0], 0.0)
            total += self.slow_endpoints.get(channel[1], 0.0)
        return total


class NIFaultGate:
    """Per-NI fault state consulted by the send/receive engines.

    The engine contract: each ``*_gate`` method is a generator the
    engine ``yield from``s; it may stall (yield delays) and returns
    ``True`` when the packet must be dropped.  A crashed NI eats
    everything; a stalled NI delays everything until the stall window
    closes; a capacity-capped NI drops arrivals that would need a
    forwarding slot beyond the cap (§2.5's buffer pool ran dry).
    """

    def __init__(self, env, ni, links: LinkFaultState) -> None:
        self.env = env
        self.ni = ni
        self.links = links
        self.crashed = False
        self.stalled_until = 0.0
        #: Forwarding-pool cap (``None`` = unlimited, the healthy case).
        self.buffer_capacity: Optional[int] = None
        self.dropped_sends = 0
        self.dropped_recvs = 0
        self.dropped_links = 0
        self.dropped_buffer = 0

    def _blocked(self):
        """Stall until the window closes; True if crashed (now or after)."""
        if self.crashed:
            return True
        while self.stalled_until > self.env.now:
            yield self.stalled_until - self.env.now
            if self.crashed:
                return True
        return False

    def send_gate(self, job):
        """Gate one outbound :class:`~repro.nic.interface.SendJob`."""
        if (yield from self._blocked()):
            self.dropped_sends += 1
            return True
        return False

    def recv_gate(self, payload):
        """Gate one arrival (a Packet, or a control payload like a Nack)."""
        if (yield from self._blocked()):
            self.dropped_recvs += 1
            return True
        if (
            self.buffer_capacity is not None
            and isinstance(payload, Packet)
            and self.ni.forwarding.get(payload.message.msg_id)
            and self.ni.forward_buffer.level >= self.buffer_capacity
        ):
            self.dropped_buffer += 1
            return True
        return False

    def link_gate(self, route, job):
        """Gate one transmission against the shared link-fault map."""
        if not self.links.active:
            return False
        extra = self.links.extra_delay(route)
        if extra > 0.0:
            yield extra
        if self.links.drops(route):
            self.dropped_links += 1
            return True
        return False


class FaultInjector:
    """Installs gates for a schedule and flips them at the right times.

    One injector serves one :meth:`attach` (one simulation); the
    simulator constructs a fresh injector per run so repeated runs of
    the same schedule are independent.  ``attach`` with an empty
    schedule is a no-op — no gates, no driver process.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.links = LinkFaultState()
        self.gates: Dict[Node, NIFaultGate] = {}
        #: ``(applied_at, event)`` log of every fault actually applied.
        self.applied: list = []
        self._hosts: frozenset = frozenset()
        self._registry = None

    def attach(self, env, registry, pool) -> None:
        """Build every NI of ``registry``, gate each and start the driver."""
        if not self.schedule:
            return
        registry.build_all()
        self._registry = registry
        self._hosts = frozenset(ni.host for ni in registry)
        for ni in registry:
            gate = NIFaultGate(env, ni, self.links)
            ni.fault_gate = gate
            self.gates[ni.host] = gate
        env.process(self._driver(env), name="fault-driver")

    # -- drop accounting -------------------------------------------------------
    def dropped(self) -> Dict[str, int]:
        """Total drops by cause across every gate."""
        out = {"sends": 0, "recvs": 0, "links": 0, "buffer": 0}
        for gate in self.gates.values():
            out["sends"] += gate.dropped_sends
            out["recvs"] += gate.dropped_recvs
            out["links"] += gate.dropped_links
            out["buffer"] += gate.dropped_buffer
        return out

    def crashed_nodes(self) -> frozenset:
        """Hosts whose NI is currently crashed."""
        return frozenset(h for h, g in self.gates.items() if g.crashed)

    # -- the driver ------------------------------------------------------------
    def _driver(self, env):
        for event in self.schedule:
            if event.time > env.now:
                yield event.time - env.now
            self._apply(env, event)

    def _apply(self, env, event) -> None:
        kind = event.kind
        target = event.target
        if kind in ("node_crash", "ni_stall", "ni_slowdown", "buffer_exhaustion"):
            if target not in self.gates:
                raise ValueError(f"fault target {target!r} is not a host of this run")
        if kind == "node_crash":
            self.gates[target].crashed = True
        elif kind == "ni_stall":
            gate = self.gates[target]
            gate.stalled_until = max(gate.stalled_until, env.now + event.duration)
        elif kind == "ni_slowdown":
            ni = self._registry.lookup(target)
            p = ni.params
            ni.params = p.with_(t_ns=p.t_ns * event.factor, t_nr=p.t_nr * event.factor)
            if event.duration is not None:
                env.process(
                    self._heal_slowdown(env, ni, event.factor, event.duration),
                    name=f"heal-slow@{target}",
                )
        elif kind == "buffer_exhaustion":
            self.gates[target].buffer_capacity = event.capacity
        elif kind == "link_drop":
            if target in self._hosts:
                self.links.dead_endpoints.add(target)
            else:
                self.links.dead_links.add(target)
            if event.duration is not None:
                env.process(
                    self._heal_drop(env, target, event.duration), name="heal-link"
                )
        elif kind == "link_degrade":
            table = (
                self.links.slow_endpoints if target in self._hosts else self.links.slow_links
            )
            table[target] = table.get(target, 0.0) + event.delay_us
            if event.duration is not None:
                env.process(
                    self._heal_degrade(env, table, target, event.delay_us, event.duration),
                    name="heal-degrade",
                )
        self.applied.append((env.now, event))

    def _heal_slowdown(self, env, ni, factor, duration):
        yield duration
        p = ni.params
        ni.params = p.with_(t_ns=p.t_ns / factor, t_nr=p.t_nr / factor)

    def _heal_drop(self, env, target, duration):
        yield duration
        self.links.dead_endpoints.discard(target)
        self.links.dead_links.discard(target)

    def _heal_degrade(self, env, table, target, delay_us, duration):
        yield duration
        remaining = table.get(target, 0.0) - delay_us
        if remaining > 0.0:
            table[target] = remaining
        else:
            table.pop(target, None)


@dataclass(frozen=True)
class DegradedResult:
    """What actually arrived when the run could not complete cleanly.

    The strict collector of :class:`~repro.mcast.simulator.MulticastSimulator`
    raises when any destination misses a packet; under injected faults
    that is the *expected* outcome, so degraded runs report coverage
    and skew instead.
    """

    #: The message that was multicast.
    message: Message
    #: destination -> sorted indices of the packets its NI received.
    delivered: Dict[Node, Tuple[int, ...]]
    #: destination -> completion time, or ``None`` if incomplete.
    destination_completion: Dict[Node, Optional[float]]
    #: Packets received across all destinations / the full-delivery count.
    packets_delivered: int
    packets_expected: int
    #: Completion time of the last *complete* destination (0 if none).
    completion_time: float
    #: Spread between first and last complete destination (0 if < 2).
    completion_skew: float
    #: Drops by cause (``sends``/``recvs``/``links``/``buffer``).
    dropped: Dict[str, int]

    @property
    def complete_destinations(self) -> Tuple[Node, ...]:
        return tuple(
            d for d, t in self.destination_completion.items() if t is not None
        )

    @property
    def lost_destinations(self) -> Tuple[Node, ...]:
        return tuple(d for d, t in self.destination_completion.items() if t is None)

    @property
    def coverage(self) -> float:
        """Fraction of destinations holding the *complete* message."""
        total = len(self.destination_completion)
        return len(self.complete_destinations) / total if total else 1.0

    @property
    def delivery_ratio(self) -> float:
        """Fraction of (destination, packet) pairs that arrived."""
        return (
            self.packets_delivered / self.packets_expected
            if self.packets_expected
            else 1.0
        )


class FaultyMulticastSimulator(MulticastSimulator):
    """Multicast simulation under a fault schedule.

    Accepts every :class:`~repro.mcast.simulator.MulticastSimulator`
    keyword; ``schedule`` is the fault scenario (empty = behave exactly
    like the base simulator).  :meth:`run`/:meth:`run_many` still apply
    the strict collector — use them for fault kinds that delay but do
    not lose packets (stall, slowdown, degrade).  For lossy kinds use
    :meth:`run_degraded`, which reports a :class:`DegradedResult`.
    """

    def __init__(self, topology, router, schedule: Optional[FaultSchedule] = None, **kwargs) -> None:
        super().__init__(topology, router, **kwargs)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        #: Injector of the most recent run (drop counters, applied log).
        self.last_injector: Optional[FaultInjector] = None

    def _post_build(self, env, registry, pool) -> None:
        injector = FaultInjector(self.schedule)
        injector.attach(env, registry, pool)
        self.last_injector = injector

    def run_degraded(
        self, tree, num_packets: int, time_limit: Optional[float] = None
    ) -> DegradedResult:
        """Run one multicast, tolerating missing deliveries.

        ``time_limit`` bounds simulated time without the strict
        pending-event check — required for protocols whose recovery
        retries forever against a dead parent (the reliable NI, which
        raises ``ValueError`` without one), and a safety net otherwise.
        """
        if time_limit is None and issubclass(self.ni_class, ReliableFPFSInterface):
            raise ValueError(
                "run_degraded needs a time_limit for the reliable NI: its "
                "NACK timers re-arm forever against a crashed parent"
            )
        env, tracer, pool, registry, messages = self._execute(
            [(tree, num_packets)], time_limit=time_limit, strict=False
        )
        message = messages[0]
        delivered: Dict[Node, Tuple[int, ...]] = {}
        completion: Dict[Node, Optional[float]] = {}
        for dest in message.destinations:
            ni = registry.lookup(dest)
            got = tuple(
                i
                for i in range(message.num_packets)
                if (message.msg_id, i) in ni.received_at
            )
            delivered[dest] = got
            if len(got) == message.num_packets:
                completion[dest] = max(
                    ni.received_at[(message.msg_id, i)] for i in got
                )
            else:
                completion[dest] = None
        complete_times = [t for t in completion.values() if t is not None]
        injector = self.last_injector
        return DegradedResult(
            message=message,
            delivered=delivered,
            destination_completion=completion,
            packets_delivered=sum(len(g) for g in delivered.values()),
            packets_expected=message.num_packets * len(message.destinations),
            completion_time=max(complete_times, default=0.0),
            completion_skew=(
                max(complete_times) - min(complete_times) if len(complete_times) > 1 else 0.0
            ),
            dropped=injector.dropped() if injector else {},
        )
