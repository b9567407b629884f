"""Concurrent multicast sessions on one shared fabric.

:class:`SessionSimulator` extends :class:`~repro.mcast.simulator.
MulticastSimulator` with the workload layer the paper never models:
sessions *arrive over time*, a scheduler decides admission order under
a concurrency cap, and every admitted session shares channels and NI
ports with whoever else is live.  The physics is unchanged — the same
:meth:`_build_network` fabric, the same NIs, the same wormhole
channels — so a single session is bit-identical to a solo
:meth:`~repro.mcast.simulator.MulticastSimulator.run` (the
differential suite pins this).

Per-session planning goes through the same path as everything else:
``chain_for`` maps the destination set onto the contention-free base
ordering, the memoized :func:`~repro.core.optimal.optimal_k` resolves
Theorem 3's fan-out, and the k-binomial tree is built per session.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.kbinomial import build_kbinomial_tree
from ..core.optimal import optimal_k
from ..mcast.orderings import chain_for
from ..mcast.simulator import MulticastSimulator
from ..nic.packets import Message
from .contention import SessionArbiter
from .metrics import SESSION_METRICS
from .schedulers import SessionPlan, make_scheduler
from .session import Session, SessionResult, SessionSetResult

__all__ = ["SessionSimulator"]


class SessionSimulator(MulticastSimulator):
    """Runs arriving multicast sessions under an admission scheduler.

    Parameters (beyond :class:`MulticastSimulator`'s)
    -------------------------------------------------
    ordering:
        Contention-free base ordering of the hosts (e.g. the CCO order)
        that per-session chains are drawn from.
    scheduler:
        A :data:`~repro.sessions.schedulers.SCHEDULERS` name or
        instance; also selects the NI send-queue policy (``rr`` builds
        round-robin NIs) unless ``send_policy`` is passed explicitly.
    max_active:
        Concurrent-session admission cap (``None`` = unbounded).
    schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule` applied
        to the shared fabric — contention under churn.  Delay-style
        faults (stalls, degradation) keep runs strict; schedules that
        *drop* traffic will leave sessions incomplete and raise.
    profiler:
        A :class:`repro.obs.SamplingProfiler` bracketed around each
        :meth:`run_sessions` call (started/stopped even on failure), so
        session sweeps can answer "where does the wall-clock go" —
        planning, simulation, or bookkeeping.
    """

    def __init__(
        self,
        topology,
        router,
        ordering: Sequence,
        *,
        scheduler="fifo",
        max_active: Optional[int] = None,
        schedule=None,
        profiler=None,
        **kwargs,
    ) -> None:
        self.scheduler = make_scheduler(scheduler)
        self.profiler = profiler
        kwargs.setdefault("send_policy", self.scheduler.send_policy)
        super().__init__(topology, router, **kwargs)
        hosts = set(topology.hosts)
        self.ordering = tuple(ordering)
        for node in self.ordering:
            if node not in hosts:
                raise ValueError(f"ordering node {node!r} is not a host of this topology")
        self.max_active = max_active
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1 or None, got {max_active}")
        self.schedule = schedule
        #: Arbiter of the most recent run (admission/completion logs).
        self.last_arbiter: Optional[SessionArbiter] = None
        #: Fault injector of the most recent run (when a schedule is set).
        self.last_injector = None
        self._solo: Optional[MulticastSimulator] = None

    # -- hooks ----------------------------------------------------------------
    def _post_build(self, env, registry, pool) -> None:
        if self.schedule is not None:
            from ..faults.inject import FaultInjector

            self.last_injector = FaultInjector(self.schedule)
            self.last_injector.attach(env, registry, pool)

    # -- planning -------------------------------------------------------------
    def plan_session(self, session: Session) -> SessionPlan:
        """Plan one session: chain → optimal k → tree → routed footprint.

        The footprint (channel set and routed dilation) is what the
        congestion+dilation-aware scheduler scores; it costs one router
        query per tree edge, once per session.
        """
        chain = chain_for(session.source, list(session.destinations), self.ordering)
        k = session.k if session.k is not None else optimal_k(len(chain), session.num_packets)
        tree = build_kbinomial_tree(chain, k)
        links = set()
        depth = {tree.root: 0}
        dilation = 0
        for parent, child in tree.edges():
            route = self.router.route(parent, child)
            links.update(route)
            hops = depth[parent] + len(route)
            depth[child] = hops
            if hops > dilation:
                dilation = hops
        SESSION_METRICS.inc("sessions_planned")
        return SessionPlan(
            session=session, tree=tree, k=k, links=frozenset(links), dilation=dilation
        )

    def _solo_simulator(self) -> MulticastSimulator:
        """The isolated-baseline oracle: same fabric config, idle, no faults."""
        if self._solo is None:
            self._solo = self.plain_copy()
        return self._solo

    # -- the run --------------------------------------------------------------
    def run_sessions(
        self,
        sessions: Sequence[Session],
        time_limit: Optional[float] = None,
        measure_isolated: bool = False,
    ) -> SessionSetResult:
        """Simulate ``sessions`` sharing one fabric; report the distribution.

        ``measure_isolated=True`` first runs each session alone on an
        idle copy of the fabric (the slowdown denominator), then the
        concurrent run.  ``time_limit`` bounds the concurrent run and
        raises if it cannot quiesce (livelock guard).
        """
        if self.profiler is not None and self.profiler.enabled:
            self.profiler.start()
            try:
                return self._run_sessions(sessions, time_limit, measure_isolated)
            finally:
                self.profiler.stop()
        return self._run_sessions(sessions, time_limit, measure_isolated)

    def _run_sessions(
        self,
        sessions: Sequence[Session],
        time_limit: Optional[float] = None,
        measure_isolated: bool = False,
    ) -> SessionSetResult:
        ordered = sorted(sessions, key=lambda s: s.sort_key)
        if not ordered:
            raise ValueError("run_sessions needs at least one session")
        ids = [s.session_id for s in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate session ids in {ids!r}")
        plans = [self.plan_session(s) for s in ordered]
        for plan in plans:
            self._check_tree(plan.tree)

        isolated: Dict[int, float] = {}
        if measure_isolated:
            solo = self._solo_simulator()
            for plan in plans:
                isolated[plan.session.session_id] = solo.run(
                    plan.tree, plan.session.num_packets
                ).latency

        env, tracer, pool, registry = self._build_network()
        messages: Dict[int, Message] = {}

        def start(plan: SessionPlan) -> Message:
            session = plan.session
            message = Message(
                source=session.source,
                destinations=session.destinations,
                num_packets=session.num_packets,
            )
            messages[session.session_id] = message
            self._start_multicast(env, registry, plan.tree, message)
            SESSION_METRICS.inc("sessions_admitted")
            return message

        arbiter = SessionArbiter(
            env,
            registry,
            self.scheduler,
            max_active=self.max_active,
            start_session=start,
        )
        arbiter.attach()
        for plan in plans:
            env.process(
                arbiter.arrival_process(plan),
                name=f"arrive-s{plan.session.session_id}",
            )
        self._drain(env, time_limit=time_limit, strict=True)

        self.last_registry = registry
        self.last_arbiter = arbiter
        self._publish_gauges(registry)

        emit_spans = tracer is not None and tracer.enabled
        results = []
        for plan in plans:
            session = plan.session
            sid = session.session_id
            message = messages.get(sid)
            if message is None or sid not in arbiter.completed_at:
                raise RuntimeError(
                    f"session {sid} never completed — scheduler or fabric bug"
                )
            mres = self._collect(registry, pool, message)
            admitted = arbiter.admitted_at[sid]
            latency = mres.completion_time - session.arrival_time + self.params.t_r
            results.append(
                SessionResult(
                    session=session,
                    admitted_at=admitted,
                    result=mres,
                    latency=latency,
                    service_latency=mres.completion_time - admitted + self.params.t_r,
                    isolated_latency=isolated.get(sid),
                )
            )
            SESSION_METRICS.inc("sessions_completed")
            if emit_spans:
                # One named track per session: its queueing wait and its
                # time on the fabric, as two adjacent spans.
                track = tracer.track("sessions", f"session {sid}")
                if admitted > session.arrival_time:
                    tracer.complete(
                        "queued", track, session.arrival_time, admitted,
                        cat="session", args={"session": sid},
                    )
                tracer.complete(
                    f"s{sid} n={session.n} m={session.num_packets}",
                    track, admitted, mres.completion_time,
                    cat="session",
                    args={
                        "session": sid,
                        "latency": latency,
                        "queued": admitted - session.arrival_time,
                    },
                )

        first_arrival = min(s.arrival_time for s in ordered)
        last_done = max(r.result.completion_time for r in results)
        set_result = SessionSetResult(
            results=tuple(results),
            scheduler=self.scheduler.name,
            makespan=last_done + self.params.t_r - first_arrival,
            blocked_time=pool.total_blocked_time,
            peak_link_sharing=arbiter.peak_link_sharing,
        )
        SESSION_METRICS.record_run(set_result.summary())
        # ``start`` refers to this simulator, which keeps the arbiter.
        arbiter.start_session = None
        self._release(registry, pool)
        return set_result
