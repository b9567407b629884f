"""The contention layer: shared-fabric admission and completion.

The fabric itself already models contention — channels are capacity-1
resources in a shared :class:`~repro.network.links.ChannelPool` and NI
ports serialize sends — because :meth:`MulticastSimulator.run_many`
runs every multicast on one environment.  What it lacks is *time* and
*policy*: sessions arriving mid-run, an admission limit, and a choice
of who goes next.  :class:`SessionArbiter` adds exactly that, with two
hooks and no changes to packet timing:

* an **arrival process** per session marks it ready at its arrival
  time (a plain DES sleep);
* the NI **delivery listener** (the one-hook pattern of
  :mod:`repro.faults.inject` — ``None`` by default, one attribute test
  per packet) counts destination deliveries and fires session
  completion the instant the last (destination, packet) lands.

Both hooks run synchronously inside existing events, so they add zero
simulated time; a single admitted session therefore behaves
bit-identically to a solo :meth:`MulticastSimulator.run` — the
differential suite pins this.

Admission is **work-conserving** by construction: the arbiter re-pumps
on every ready and every completion event, so a slot is never idle
while a session is ready (:meth:`work_conservation_violations` replays
the event log and proves it after the fact).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..nic.interface import NetworkInterface, NICRegistry
from ..nic.packets import Packet
from ..sim import Environment
from .schedulers import SessionPlan, SessionScheduler

__all__ = ["SessionArbiter"]


class _LiveSession:
    """Bookkeeping for one admitted, not-yet-complete session."""

    __slots__ = ("plan", "remaining", "dest_set", "msg_id")

    def __init__(self, plan: SessionPlan, msg_id: int) -> None:
        self.plan = plan
        self.msg_id = msg_id
        self.dest_set: Set = set(plan.session.destinations)
        self.remaining = plan.session.num_packets * len(self.dest_set)


class SessionArbiter:
    """Admits sessions onto a shared fabric under a scheduler's order.

    Parameters
    ----------
    env, registry:
        The shared simulation and its NIs (one fabric, all sessions).
    scheduler:
        Which ready session an open slot goes to.
    max_active:
        Concurrent-session cap (``None`` = unbounded, admit on
        arrival).  With a cap, completions free slots and re-pump.
    start_session:
        Callback the simulator installs: given an admitted plan, create
        its message, install forwarding, start injection, and return
        the :class:`~repro.nic.packets.Message` (its ``msg_id`` keys
        completion tracking).
    """

    def __init__(
        self,
        env: Environment,
        registry: NICRegistry,
        scheduler: SessionScheduler,
        max_active: Optional[int] = None,
        start_session: Optional[Callable[[SessionPlan], object]] = None,
    ) -> None:
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1 or None, got {max_active}")
        self.env = env
        self.registry = registry
        self.scheduler = scheduler
        self.max_active = max_active
        self.start_session = start_session
        #: Sessions that have arrived but not been admitted.
        self.ready: List[SessionPlan] = []
        #: session_id -> live plan, for sessions currently on the fabric.
        self.active: Dict[int, SessionPlan] = {}
        #: channel key -> number of active sessions whose tree uses it.
        self.link_load: Dict = {}
        #: Highest simultaneous sharing count seen on any one channel.
        self.peak_link_sharing = 0
        #: session_id -> admission time.
        self.admitted_at: Dict[int, float] = {}
        #: session_id -> completion time (last delivery's NI finish).
        self.completed_at: Dict[int, float] = {}
        #: Ordered (time, kind, session_id) event log; kind is one of
        #: ``ready`` / ``admit`` / ``complete``.  Appended in the exact
        #: order decisions were made — the work-conservation replay and
        #: the FIFO-ordering property read this.
        self.log: List[Tuple[float, str, int]] = []
        self._live_by_msg: Dict[int, _LiveSession] = {}

    # -- fabric hooks --------------------------------------------------------
    def attach(self) -> None:
        """Build every NI of the fabric and install the delivery listener."""
        self.registry.build_all()
        for ni in self.registry:
            ni.delivery_listener = self._on_delivery

    def arrival_process(self, plan: SessionPlan):
        """DES process: wait until the session's arrival, mark it ready."""
        delay = plan.session.arrival_time - self.env.now
        if delay > 0:
            yield delay
        self.mark_ready(plan)

    # -- admission -----------------------------------------------------------
    def mark_ready(self, plan: SessionPlan) -> None:
        """A session has arrived; admit now if a slot is open."""
        self.ready.append(plan)
        self.log.append((self.env.now, "ready", plan.session.session_id))
        self._pump()

    def _pump(self) -> None:
        while self.ready and (
            self.max_active is None or len(self.active) < self.max_active
        ):
            plan = self.scheduler.pick(self.ready, list(self.active.values()), self.link_load)
            for index, candidate in enumerate(self.ready):
                if candidate is plan:
                    del self.ready[index]
                    break
            else:
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} picked a plan outside the ready queue"
                )
            self._admit(plan)

    def _admit(self, plan: SessionPlan) -> None:
        sid = plan.session.session_id
        now = self.env.now
        self.active[sid] = plan
        self.admitted_at[sid] = now
        self.log.append((now, "admit", sid))
        for link in plan.links:
            level = self.link_load.get(link, 0) + 1
            self.link_load[link] = level
            if level > self.peak_link_sharing:
                self.peak_link_sharing = level
        if self.start_session is None:
            raise RuntimeError("no start_session callback installed on the arbiter")
        message = self.start_session(plan)
        self._live_by_msg[message.msg_id] = _LiveSession(plan, message.msg_id)

    # -- completion ----------------------------------------------------------
    def _on_delivery(self, ni: NetworkInterface, packet: Packet) -> None:
        live = self._live_by_msg.get(packet.message.msg_id)
        if live is None or ni.host not in live.dest_set:
            return
        live.remaining -= 1
        if live.remaining == 0:
            self._complete(live)

    def _complete(self, live: _LiveSession) -> None:
        sid = live.plan.session.session_id
        now = self.env.now
        self.completed_at[sid] = now
        self.log.append((now, "complete", sid))
        del self.active[sid]
        del self._live_by_msg[live.msg_id]
        for link in live.plan.links:
            level = self.link_load[link] - 1
            if level:
                self.link_load[link] = level
            else:
                del self.link_load[link]
        self._pump()

    # -- invariant replay ----------------------------------------------------
    def work_conservation_violations(self) -> List[str]:
        """Replay the log; report any instant a free slot sat on ready work.

        At the end of every distinct timestamp, either the ready queue
        is empty or every admission slot is occupied — because the
        arbiter pumps inside the same event that made a session ready
        or a slot free.  An empty return is the work-conservation
        proof; anything else names the violating instants.
        """
        violations: List[str] = []
        ready_count = 0
        active_count = 0
        for index, (time, kind, sid) in enumerate(self.log):
            if kind == "ready":
                ready_count += 1
            elif kind == "admit":
                ready_count -= 1
                active_count += 1
            elif kind == "complete":
                active_count -= 1
            at_boundary = (
                index + 1 == len(self.log) or self.log[index + 1][0] != time
            )
            if at_boundary and ready_count > 0 and (
                self.max_active is None or active_count < self.max_active
            ):
                violations.append(
                    f"t={time}: {ready_count} ready with only "
                    f"{active_count}/{self.max_active} slots in use"
                )
        return violations
