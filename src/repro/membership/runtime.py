"""Drive membership churn through a live multicast simulation.

:class:`ChurnSimulator` runs one multicast while a
:class:`~repro.membership.schedule.MembershipSchedule` plays out, using
the same two NI hooks every other subsystem rides:

* ``ni.fault_gate`` — a departed member's NI is gated (its engines
  drop everything, starving its subtree exactly like a crash), and
  un-gated again on ``rejoin``.  The gates are the
  :class:`~repro.faults.inject.NIFaultGate` objects of the fault layer;
  a departure *is* a crash as far as the data plane is concerned — the
  difference is entirely in the control plane's response.
* ``ni.delivery_listener`` — every delivered packet is attributed to
  its destination live, across the original message *and* every
  amendment/catch-up message, so delivery accounting follows the
  content, not one ``msg_id``.

The control-plane response is incremental repair via
:func:`~repro.membership.amend.amend_plan`:

* a ``leave`` that removes a node forwarding for *any* in-flight
  content message triggers an amendment over the current member set
  and a re-multicast of the content over the amended tree (the
  disruption window runs from the leave to the re-multicast's
  completion) — a leaf leaving disrupts nobody and costs nothing;
* a ``join``/``rejoin`` grafts the newcomer and sends it a catch-up
  multicast; the joiner's *staleness* is catch-up completion minus
  join time.

The repair trigger checks every live content tree, not just the
newest plan: a host can be a leaf of the latest amendment yet still
carry a subtree of an older message whose packets have not all passed
it — missing that would silently starve stable members.

Graceful-degradation contract (asserted by the churn smoke): every
*stable* member — an initial destination never named by a ``leave`` —
receives the complete message, whatever joins and leaves happen
around it.  The cardinal invariant carries over from the fault layer:
an **empty** schedule installs no gates, no listeners, no driver, and
the run is byte-identical to the plain simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.kbinomial import build_kbinomial_tree
from ..core.optimal import optimal_k
from ..core.trees import MulticastTree, build_flat_tree
from ..faults.inject import LinkFaultState, NIFaultGate
from ..mcast.orderings import chain_for
from ..mcast.simulator import MulticastSimulator
from ..network.topology import Node
from ..nic.packets import Message, Packet
from .amend import MembershipDelta, amend_plan
from .schedule import MembershipSchedule

__all__ = ["ChurnResult", "ChurnSimulator"]


@dataclass(frozen=True)
class ChurnResult:
    """What one churn run delivered, to whom, and at what disruption.

    ``delivered`` counts distinct *content* packet indices per host —
    a packet counts whether it arrived on the original message, an
    amendment re-multicast, or a catch-up.
    """

    #: Initial destinations (pre-churn, chain order).
    initial: Tuple[Node, ...]
    #: Initial destinations never named by a ``leave`` event.
    stable: Tuple[Node, ...]
    #: Hosts that joined (or rejoined) during the run.
    joined: Tuple[Node, ...]
    #: Hosts that left during the run and did not come back.
    departed: Tuple[Node, ...]
    #: host -> sorted distinct content packet indices it received.
    delivered: Dict[Node, Tuple[int, ...]]
    #: Packets per message.
    m: int
    #: host -> catch-up completion minus join time (µs), for joiners
    #: whose catch-up completed.
    joiner_staleness: Dict[Node, float]
    #: ``(leave_time, repair_completion)`` per amendment re-multicast.
    disruption_windows: Tuple[Tuple[float, float], ...]
    #: Amendment re-multicasts triggered by forwarding-node leaves.
    amends: int
    #: Catch-up multicasts sent to joiners.
    catch_ups: int
    #: Drops by cause at departed members' gates.
    dropped: Dict[str, int]
    #: Simulated time of the last content delivery anywhere.
    completion_time: float

    @property
    def delivery_to_stable(self) -> float:
        """Fraction of (stable member, packet) pairs delivered."""
        expected = len(self.stable) * self.m
        if not expected:
            return 1.0
        got = sum(len(self.delivered.get(h, ())) for h in self.stable)
        return got / expected

    @property
    def stable_complete(self) -> bool:
        """Did every stable member receive the whole message?"""
        return all(
            len(self.delivered.get(h, ())) == self.m for h in self.stable
        )

    @property
    def max_disruption(self) -> float:
        """Longest repair window (µs), 0.0 when no amendment was needed."""
        return max(
            (end - start for start, end in self.disruption_windows), default=0.0
        )

    @property
    def mean_staleness(self) -> Optional[float]:
        """Mean joiner staleness (µs), ``None`` without joiners."""
        if not self.joiner_staleness:
            return None
        return sum(self.joiner_staleness.values()) / len(self.joiner_staleness)


class ChurnSimulator(MulticastSimulator):
    """Multicast simulation under a membership schedule.

    Accepts every :class:`~repro.mcast.simulator.MulticastSimulator`
    keyword plus ``schedule`` (the churn scenario) and
    ``base_ordering`` (the contention-free base ordering joiners are
    grafted by; defaults to the topology's host order).  With an empty
    schedule :meth:`run_churn` degenerates to a strict plain run — no
    hooks are installed at all.
    """

    def __init__(
        self,
        topology,
        router,
        *,
        schedule: Optional[MembershipSchedule] = None,
        base_ordering=(),
        **kwargs,
    ) -> None:
        super().__init__(topology, router, **kwargs)
        self.schedule = schedule if schedule is not None else MembershipSchedule()
        self.base_ordering = tuple(base_ordering)
        # Per-run state, reset by run_churn.
        self._gates: Dict[Node, NIFaultGate] = {}
        self._content_ids: set = set()
        self._delivered: Dict[Node, Dict[int, float]] = {}
        self._env = None
        self._registry = None

    def _ordering(self) -> Tuple:
        return self.base_ordering or tuple(self.topology.hosts)

    # -- hooks ---------------------------------------------------------------
    def _post_build(self, env, registry, pool) -> None:
        if not self.schedule:
            return
        registry.build_all()
        self._env = env
        self._registry = registry
        links = LinkFaultState()  # churn never breaks channels
        for ni in registry:
            gate = NIFaultGate(env, ni, links)
            ni.fault_gate = gate
            ni.delivery_listener = self._on_delivery
            self._gates[ni.host] = gate
        env.process(self._driver(env), name="churn-driver")

    def _start_multicast(self, env, registry, tree, message: Message) -> None:
        self._content_ids.add(message.msg_id)
        super()._start_multicast(env, registry, tree, message)

    def _on_delivery(self, ni, packet: Packet) -> None:
        if packet.message.msg_id not in self._content_ids:
            return
        per_host = self._delivered.setdefault(ni.host, {})
        per_host.setdefault(packet.index, self._env.now)

    # -- the run -------------------------------------------------------------
    def run_churn(
        self,
        source: Node,
        destinations,
        m: int,
        *,
        time_limit: Optional[float] = None,
    ) -> ChurnResult:
        """One multicast of ``m`` packets under the churn schedule.

        The initial plan is the Theorem-3 optimal k-binomial tree over
        ``chain_for(source, destinations, base_ordering)``; the driver
        then applies the schedule mid-flight, amending and catching up
        as described in the module docstring.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        chain = chain_for(source, list(destinations), self._ordering())
        tree = build_kbinomial_tree(chain, optimal_k(len(chain), m))

        self._gates = {}
        self._content_ids = set()
        self._delivered = {}
        self._env = None
        self._registry = None
        self._members = list(chain)
        self._left: set = set()
        self._chain = list(chain)
        self._tree = tree
        self._m = m
        self._live_trees: List[MulticastTree] = [tree]
        self._catch_up_log: List[Tuple[float, Node, Message]] = []
        self._repair_messages: List[Tuple[float, Message]] = []

        strict = not self.schedule
        env, tracer, pool, registry, messages = self._execute(
            [(tree, m)], time_limit=time_limit, strict=strict
        )
        return self._collect_churn(registry, messages[0])

    # -- the driver ----------------------------------------------------------
    def _driver(self, env):
        for event in self.schedule:
            if event.time > env.now:
                yield event.time - env.now
            if event.kind == "leave":
                self._apply_leave(env, event.node)
            else:  # join / rejoin
                self._apply_join(env, event.node)

    def _apply_leave(self, env, node: Node) -> None:
        if node not in self._members or node == self._chain[0]:
            return
        gate = self._gates.get(node)
        if gate is not None:
            gate.crashed = True
        # Forwarding for ANY in-flight content message counts, not just
        # the newest plan (see module docstring).
        was_forwarding = any(
            node in t and t.children(node) for t in self._live_trees
        )
        amended = amend_plan(
            self._tree,
            self._chain,
            MembershipDelta(leaves=(node,)),
            self._m,
            base_ordering=self._ordering(),
        )
        self._members.remove(node)
        self._left.add(node)
        self._chain = list(amended.chain)
        self._tree = amended.tree
        if was_forwarding and len(amended.chain) >= 2:
            # The leaver was carrying a subtree: re-multicast the
            # content over the amended tree so the members behind it
            # still complete.
            message = Message(
                source=amended.tree.root,
                destinations=tuple(amended.tree.destinations()),
                num_packets=self._m,
            )
            self._live_trees.append(amended.tree)
            self._repair_messages.append((env.now, message))
            self._start_multicast(env, self._registry, amended.tree, message)

    def _apply_join(self, env, node: Node) -> None:
        if node in self._members or node not in set(self._ordering()):
            return
        gate = self._gates.get(node)
        if gate is not None:
            gate.crashed = False  # a rejoiner's NI is healthy again
        amended = amend_plan(
            self._tree,
            self._chain,
            MembershipDelta(joins=(node,)),
            self._m,
            base_ordering=self._ordering(),
        )
        self._members.append(node)
        self._left.discard(node)
        self._chain = list(amended.chain)
        self._tree = amended.tree
        # Catch the newcomer up with a direct source -> joiner multicast
        # of the full content; later plans include it via the amendment.
        catch_up_tree = build_flat_tree([self._chain[0], node])
        message = Message(
            source=self._chain[0], destinations=(node,), num_packets=self._m
        )
        self._live_trees.append(catch_up_tree)
        self._catch_up_log.append((env.now, node, message))
        self._start_multicast(env, self._registry, catch_up_tree, message)

    # -- collection ----------------------------------------------------------
    def _collect_churn(self, registry, original: Message) -> ChurnResult:
        initial = tuple(original.destinations)
        stable = self.schedule.stable(initial)
        joined = tuple(node for _, node, _ in self._catch_up_log)
        departed = tuple(sorted(self._left, key=repr))

        if self.schedule:
            delivered = {
                host: tuple(sorted(indices))
                for host, indices in self._delivered.items()
            }
            completion = max(
                (
                    at
                    for per_host in self._delivered.values()
                    for at in per_host.values()
                ),
                default=0.0,
            )
        else:
            # No listeners were installed; account from the NI tables.
            delivered = {}
            completion = 0.0
            for dest in initial:
                ni = registry.lookup(dest)
                arrivals = {
                    i: ni.received_at[(original.msg_id, i)]
                    for i in range(original.num_packets)
                    if (original.msg_id, i) in ni.received_at
                }
                delivered[dest] = tuple(sorted(arrivals))
                completion = max(completion, max(arrivals.values(), default=0.0))

        # Staleness runs to the catch-up message's own last arrival: a
        # rejoiner's first-delivery times predate its rejoin, and an
        # amendment can deliver some content before the catch-up does.
        staleness: Dict[Node, float] = {}
        for joined_at, node, message in self._catch_up_log:
            received = registry.lookup(node).received_at
            times = [received.get((message.msg_id, i)) for i in range(message.num_packets)]
            if None not in times:
                staleness[node] = max(times) - joined_at

        windows = []
        for left_at, message in self._repair_messages:
            times = []
            for dest in message.destinations:
                ni = registry.lookup(dest)
                for i in range(message.num_packets):
                    at = ni.received_at.get((message.msg_id, i))
                    if at is not None:
                        times.append(at)
            if times:
                windows.append((left_at, max(times)))

        dropped = {"sends": 0, "recvs": 0, "links": 0, "buffer": 0}
        for gate in self._gates.values():
            dropped["sends"] += gate.dropped_sends
            dropped["recvs"] += gate.dropped_recvs
            dropped["links"] += gate.dropped_links
            dropped["buffer"] += gate.dropped_buffer

        return ChurnResult(
            initial=initial,
            stable=stable,
            joined=joined,
            departed=departed,
            delivered=delivered,
            m=original.num_packets,
            joiner_staleness=staleness,
            disruption_windows=tuple(windows),
            amends=len(self._repair_messages),
            catch_ups=len(self._catch_up_log),
            dropped=dropped,
            completion_time=completion,
        )
