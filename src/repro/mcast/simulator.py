"""End-to-end multicast simulation: trees × NIs × wormhole network.

:class:`MulticastSimulator` assembles one simulation per ``run`` call:
a fresh :class:`~repro.sim.Environment`, a shared
:class:`~repro.network.links.ChannelPool`, an NI registry that builds a
host's NI (of the chosen forwarding discipline) the first time the run
looks it up, forwarding tables derived from the multicast tree, and the
source's injection process.  The run ends when the system quiesces (every NI
engine blocked on an empty queue), at which point every destination NI
must hold every packet — verified, not assumed.

The reported latency follows the paper's accounting:

    latency = sim completion time + t_r

where the sim already charges the source's ``t_s`` (once, at injection,
for smart NIs; per forwarded copy inside the run for conventional NIs)
and the completion time is the moment the *last* destination NI finishes
receiving the *last* packet.  The final ``t_r`` is the single host
receive overhead every destination pays after its NI holds the message.

Observation goes through one optional :class:`repro.obs.Tracer`: each
run points its clock at the fresh environment, and every NI records its
packet events on it as spans (see :mod:`repro.nic.interface`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from ..core.trees import MulticastTree
from ..network.links import ChannelPool
from ..network.topology import Node, Topology
from ..nic.fpfs import FPFSInterface
from ..nic.interface import NetworkInterface, NICRegistry
from ..nic.packets import Message
from ..obs.metrics import GLOBAL_METRICS
from ..obs.tracer import Tracer
from ..params import PAPER_PARAMS, SystemParams
from ..sim import Environment

__all__ = ["MulticastResult", "MulticastSimulator"]


@dataclass(frozen=True)
class MulticastResult:
    """Measurements from one simulated multicast."""

    #: End-to-end latency in µs (completion + t_r; t_s inside the sim).
    latency: float
    #: Simulated time at which the last destination NI held the last packet.
    completion_time: float
    #: packet index -> time its last destination NI finished receiving it.
    packet_completion: Tuple[float, ...]
    #: destination -> time its NI finished receiving the whole message.
    destination_completion: Dict[Node, float]
    #: host -> peak packets buffered for forwarding at its NI, for every
    #: host of the topology in host order (0 where no NI was built).
    peak_buffers: Dict[Node, int]
    #: Total time packets spent blocked on busy channels (contention).
    blocked_time: float
    #: The message that was multicast.
    message: Message

    @property
    def max_peak_buffer(self) -> int:
        """Worst-case NI forwarding buffer across all hosts."""
        return max(self.peak_buffers.values(), default=0)

    @property
    def max_intermediate_buffer(self) -> int:
        """Worst-case forwarding buffer at *intermediate* NIs.

        Excludes the source, whose NI legitimately holds the whole
        message after the host hand-off; §3.3.2's FCFS-vs-FPFS buffer
        claim is about forwarding nodes.
        """
        return max(
            (peak for h, peak in self.peak_buffers.items() if h != self.message.source),
            default=0,
        )

    @property
    def packet_intervals(self) -> Tuple[float, ...]:
        """Gaps between successive packet completions (Theorem 1's k_T·t_step)."""
        return tuple(
            b - a for a, b in zip(self.packet_completion, self.packet_completion[1:])
        )


class MulticastSimulator:
    """Runs packetized multicasts over one topology + router.

    Parameters
    ----------
    topology:
        The network (e.g. :func:`~repro.network.irregular.build_irregular_network`).
    router:
        ``route(src_host, dst_host) -> [channel keys]`` provider.
    params:
        Timing parameters (defaults to the paper's).
    ni_class:
        Forwarding discipline; default FPFS.
    tracer:
        A :class:`repro.obs.Tracer` span sink.  Each run rebinds its
        clock to the fresh environment's simulated time, so NI
        send/recv/inject spans land on the DES timeline (export with
        :func:`repro.obs.write_chrome_trace` and open in Perfetto, or
        read ``tracer.events`` as :func:`repro.analysis.run_breakdown`
        does).  ``None`` (default) disables span emission entirely.
    """

    def __init__(
        self,
        topology: Topology,
        router,
        params: SystemParams = PAPER_PARAMS,
        ni_class: Type[NetworkInterface] = FPFSInterface,
        host_speed: Optional[Dict[Node, float]] = None,
        send_policy: str = "fifo",
        ni_ports: int = 1,
        channel_model: str = "path",
        tracer: Optional[Tracer] = None,
    ) -> None:
        from ..nic.scheduling import SEND_POLICIES

        self.topology = topology
        self.router = router
        self.params = params
        self.ni_class = ni_class
        if send_policy not in SEND_POLICIES:
            raise ValueError(
                f"unknown send_policy {send_policy!r}; choose from {sorted(SEND_POLICIES)}"
            )
        self.send_policy = send_policy
        self._send_queue_cls = SEND_POLICIES[send_policy]
        if ni_ports < 1:
            raise ValueError(f"ni_ports must be >= 1, got {ni_ports}")
        #: Injection ports per NI (1 = the paper's one-port model).
        self.ni_ports = ni_ports
        from ..nic.interface import TRANSMITTERS

        if channel_model not in TRANSMITTERS:
            raise ValueError(
                f"unknown channel_model {channel_model!r}; choose from {sorted(TRANSMITTERS)}"
            )
        #: 'path' = hold the whole route until the tail drains (the
        #: conservative packet-level model); 'worm' = finite-worm
        #: sliding-window occupancy (flit-level refinement).
        self.channel_model = channel_model
        #: Per-host NI speed factor: host -> multiplier applied to that
        #: NI's t_ns/t_nr (2.0 = a straggler coprocessor twice as slow).
        #: Hosts not listed run at factor 1.0.
        self.host_speed = dict(host_speed or {})
        for h, factor in self.host_speed.items():
            if factor <= 0:
                raise ValueError(f"host_speed[{h!r}] must be positive, got {factor}")
        #: Span sink shared by every NI of every run (None = no spans).
        self.tracer = tracer
        #: NI registry of the most recent run (post-mortem inspection).
        self.last_registry: Optional[NICRegistry] = None
        #: Buffer-level gauges of the most recent run (also published
        #: to ``repro.obs.GLOBAL_METRICS`` under ``"sim"``).
        self.last_gauges: Dict[str, float] = {}

    def plain_copy(self, tracer: Optional[Tracer] = None) -> "MulticastSimulator":
        """A plain simulator with this one's fabric configuration.

        No fault, loss or session hooks: the sessions layer's isolated-run
        oracle and the breakdown's traced re-run are both made here.
        """
        return MulticastSimulator(
            self.topology,
            self.router,
            params=self.params,
            ni_class=self.ni_class,
            host_speed=self.host_speed,
            send_policy=self.send_policy,
            ni_ports=self.ni_ports,
            channel_model=self.channel_model,
            tracer=tracer,
        )

    def _make_pool(self, env: Environment) -> ChannelPool:
        """Channel pool factory (hook for lossy/instrumented pools)."""
        return ChannelPool(env, host_link_capacity=self.ni_ports)

    def _post_build(self, env: Environment, registry: NICRegistry, pool: ChannelPool) -> None:
        """Hook after the fabric exists but before any message is installed.

        :class:`repro.faults.inject.FaultyMulticastSimulator` attaches
        its fault injector here; the base simulator does nothing, so
        fault-free runs are untouched.  A hook that touches every NI
        calls ``registry.build_all()`` first: until then only looked-up
        NIs exist.
        """

    def _params_for(self, host: Node) -> SystemParams:
        factor = self.host_speed.get(host, 1.0)
        if factor == 1.0:
            return self.params
        return self.params.with_(
            t_ns=self.params.t_ns * factor, t_nr=self.params.t_nr * factor
        )

    def run(
        self, tree: MulticastTree, num_packets: int, time_limit: Optional[float] = None
    ) -> MulticastResult:
        """Simulate one multicast of ``num_packets`` packets over ``tree``."""
        return self.run_many([(tree, num_packets)], time_limit=time_limit)[0]

    def run_many(self, multicasts, time_limit: Optional[float] = None) -> list:
        """Simulate several multicasts *concurrently* on one network.

        ``multicasts`` is a sequence of ``(tree, num_packets)`` pairs;
        all sources inject at time zero and the messages share channels
        and NI engines, so the results capture inter-multicast
        contention (the "multiple multicast" problem of the group's
        companion work).  Returns one :class:`MulticastResult` per input
        in order.

        ``time_limit`` (µs of simulated time) turns a hung protocol —
        e.g. a recovery loop that never converges — into an immediate
        :class:`RuntimeError` instead of an unbounded run.
        """
        env, tracer, pool, registry, messages = self._execute(
            multicasts, time_limit=time_limit, strict=True
        )
        results = [self._collect(registry, pool, message) for message in messages]
        self._release(registry, pool)
        return results

    def _execute(self, multicasts, time_limit: Optional[float] = None, strict: bool = True):
        """Build and run one simulation; return its raw state.

        The shared engine behind :meth:`run_many` (``strict=True``: a
        run that cannot quiesce within ``time_limit`` raises) and
        degraded fault runs (``strict=False``: faults legitimately leave
        engines waiting forever, so hitting the limit just ends the
        run).  Returns ``(env, tracer, pool, registry, messages)``.
        """
        if not multicasts:
            raise ValueError("run_many needs at least one multicast")
        for tree, num_packets in multicasts:
            self._check_tree(tree)

        env, tracer, pool, registry = self._build_network()

        messages = []
        for tree, num_packets in multicasts:
            message = Message(
                source=tree.root,
                destinations=tuple(tree.destinations()),
                num_packets=num_packets,
            )
            messages.append(message)
            self._start_multicast(env, registry, tree, message)
        self._drain(env, time_limit=time_limit, strict=strict)

        self.last_registry = registry
        self._publish_gauges(registry)
        return env, tracer, pool, registry, messages

    def _release(self, registry: NICRegistry, pool: ChannelPool) -> None:
        """Free a finished, collected fabric by reference counting.

        Closes every NI (its parked engines and its references back
        into the fabric), the registry's factory and the channels' link
        to their pool.  What a finished run is read for stays: every
        built NI in :attr:`last_registry` with its ``received_at`` and
        buffer monitor, and the pool's counters.  A run that stopped at
        its time limit is not released: its engines may be parked
        mid-send, and the garbage collector frees it as before.
        """
        for ni in registry:
            ni.close()
        registry.close()
        pool.close()

    def _check_tree(self, tree: MulticastTree) -> None:
        """Validate a tree and confirm every node is a topology host."""
        tree.validate()
        hosts = set(self.topology.hosts)
        for node in tree.nodes():
            if node not in hosts:
                raise ValueError(f"tree node {node!r} is not a host of this topology")

    def _build_network(self):
        """Fresh environment, channel pool, and an NI registry over the hosts.

        The registry builds a host's NI on its first lookup, so a run
        builds only the NIs its trees touch: an idle NI's engines would
        only park on an empty queue.  An NI built after the fabric
        opened averages its buffer level from the opening, like one
        built with it.  No messages are installed yet — :meth:`_execute`
        admits them all at time zero, while
        :class:`repro.sessions.SessionSimulator` reuses this exact fabric
        and admits messages as its scheduler decides.  Returns ``(env,
        tracer, pool, registry)``; ``tracer`` is :attr:`tracer`, ``None``
        when the run is not traced.
        """
        env = Environment()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # Spans of this run read the fresh environment's clock.
            tracer.set_clock(lambda: env.now)
        pool = self._make_pool(env)
        opened_at = env.now

        def build(h: Node) -> NetworkInterface:
            ni = self.ni_class(
                env,
                h,
                self.router,
                registry,
                pool,
                self._params_for(h),
                send_queue_cls=self._send_queue_cls,
                ports=self.ni_ports,
                channel_model=self.channel_model,
                tracer=tracer,
            )
            ni.forward_buffer.backdate(opened_at)
            return ni

        registry = NICRegistry(build, self.topology.hosts)
        self._post_build(env, registry, pool)
        return env, tracer, pool, registry

    def _start_multicast(
        self, env: Environment, registry: NICRegistry, tree: MulticastTree, message: Message
    ) -> None:
        """Install forwarding tables for ``message`` and start injection."""
        for node in tree.nodes():
            registry.lookup(node).forwarding[message.msg_id] = tree.children(node)
        source_ni = registry.lookup(tree.root)
        env.process(
            source_ni.inject_multicast(tree, message),
            name=f"inject-{message.msg_id}",
        )

    def _drain(
        self, env: Environment, time_limit: Optional[float] = None, strict: bool = True
    ) -> None:
        """Run ``env`` to quiescence (or ``time_limit``; strict = raise)."""
        if time_limit is not None:
            env.run(until=time_limit)
            if strict and len(env):
                raise RuntimeError(
                    f"simulation still active at time_limit={time_limit} µs "
                    f"({len(env)} events pending) — protocol livelock or "
                    "the limit is too tight"
                )
        else:
            env.run()

    def _publish_gauges(self, registry: NICRegistry) -> None:
        """Close every NI buffer monitor and publish run-level gauges.

        The gauges cover every host, in host order; a host whose NI was
        never built held nothing (peak 0, average 0.0).  They land in
        :data:`repro.obs.GLOBAL_METRICS` under ``"sim"`` so one
        ``snapshot()`` call sees simulation buffer levels next to
        service counters and cache hit rates.
        """
        peaks = []
        averages = []
        for h in self.topology.hosts:
            ni = registry.get(h)
            if ni is None:
                peaks.append(0)
                averages.append(0.0)
                continue
            monitor = ni.forward_buffer
            monitor.finalize()
            peaks.append(monitor.peak)
            averages.append(monitor.time_average)
        self.last_gauges = {
            "ni_buffer_peak": max(peaks, default=0),
            "ni_buffer_avg": (sum(averages) / len(averages)) if averages else 0.0,
            "hosts": len(peaks),
        }
        GLOBAL_METRICS.set_gauges("sim", self.last_gauges)

    def _collect(
        self, registry: NICRegistry, pool: ChannelPool, message: Message
    ) -> MulticastResult:
        packet_completion = [0.0] * message.num_packets
        destination_completion: Dict[Node, float] = {}
        for dest in message.destinations:
            ni = registry.lookup(dest)
            dest_last = 0.0
            for index in range(message.num_packets):
                at = ni.received_at.get((message.msg_id, index))
                if at is None:
                    raise RuntimeError(
                        f"simulation quiesced but {dest!r} never received packet "
                        f"{index} of message {message.msg_id} — forwarding bug"
                    )
                packet_completion[index] = max(packet_completion[index], at)
                dest_last = max(dest_last, at)
            destination_completion[dest] = dest_last

        completion = max(packet_completion)
        peak_buffers = {}
        for h in self.topology.hosts:
            ni = registry.get(h)
            peak_buffers[h] = 0 if ni is None else ni.forward_buffer.peak
        return MulticastResult(
            latency=completion + self.params.t_r,
            completion_time=completion,
            packet_completion=tuple(packet_completion),
            destination_completion=destination_completion,
            peak_buffers=peak_buffers,
            blocked_time=pool.total_blocked_time,
            message=message,
        )
