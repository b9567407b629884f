"""The network interface model (Fig. 1): queues, coprocessor, DMA.

Every host owns one :class:`NetworkInterface`.  Two always-on coprocessor
loops model its behaviour:

* the **send engine** drains the send queue one :class:`SendJob` at a
  time: ``t_ns`` of coprocessor overhead, then a wormhole transmission
  (path acquisition + wire time) to the destination NI's receive queue.
  Back-to-back sends therefore serialize on the NI, which is what makes
  a node's fan-out the pipeline bottleneck in §4.1's model;
* the **receive engine** drains the receive queue: ``t_nr`` of
  coprocessor overhead per packet, then one receive step
  (:meth:`_receive`) that records the delivery and hands the packet to
  the forwarding discipline hook :meth:`on_packet` (conventional /
  FCFS / FPFS / reliable subclasses).

These are the only two loops: every discipline, the reliable NI
included, customizes the hooks, never the loops.  Both sleep by
yielding their delay (see :mod:`repro.sim.process`), and the send
engine resolves each destination's route to its channel resources and
receiving NI once (:meth:`NetworkInterface._route_to`).  Packet events go to
one :class:`repro.obs.Tracer` as spans (``send``/``recv``), instants
(``deliver``) and buffer counters, behind one ``tracer.enabled`` test.

Forwarding buffer occupancy (packets the coprocessor must hold for
replication, §2.5) is tracked in a :class:`~repro.sim.monitor.LevelMonitor`
so the FCFS-vs-FPFS buffer claim can be *measured*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

from ..network.links import ChannelPool
from ..network.topology import Node
from ..network.wormhole import transmit, transmit_windowed
from ..obs.tracer import NULL_TRACER, Tracer
from ..params import SystemParams
from ..sim import Environment, LevelMonitor, Store
from .packets import Packet

#: Available channel-occupancy models for the send engine.
TRANSMITTERS = {"path": transmit, "worm": transmit_windowed}

if TYPE_CHECKING:  # pragma: no cover
    from ..core.trees import MulticastTree

__all__ = ["SendJob", "NetworkInterface", "NICRegistry"]


class SendJob:
    """One packet transmission queued at an NI.

    ``on_sent`` (if set) runs when the packet's tail has left — the
    moment the NI may drop its buffered copy for this child.  Built
    once per queued copy, so it is a slotted plain class.
    """

    __slots__ = ("packet", "destination", "on_sent")

    def __init__(
        self, packet: Packet, destination: Node, on_sent: Optional[Callable[[], None]] = None
    ) -> None:
        self.packet = packet
        self.destination = destination
        self.on_sent = on_sent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SendJob({self.packet!r}, {self.destination!r}, on_sent={self.on_sent!r})"


class NICRegistry:
    """host → NI lookup shared by all interfaces of one simulation.

    A simulator's registry builds NIs on demand: given ``build``, a
    ``host -> NI`` factory, and the fabric's ``hosts``, :meth:`lookup`
    builds a host's NI (which registers itself) the first time it is
    asked for, so a run builds only the NIs its trees touch.  Hooks
    that need every NI call :meth:`build_all` first.  Iteration yields
    the NIs built so far, in build order.
    """

    def __init__(
        self,
        build: Optional[Callable[[Node], "NetworkInterface"]] = None,
        hosts: Iterable[Node] = (),
    ) -> None:
        self._by_host: Dict[Node, "NetworkInterface"] = {}
        self._build = build
        self._hosts = tuple(hosts)
        self._buildable = frozenset(self._hosts)

    def register(self, ni: "NetworkInterface") -> None:
        if ni.host in self._by_host:
            raise ValueError(f"host {ni.host!r} already has an NI")
        self._by_host[ni.host] = ni

    def lookup(self, host: Node) -> "NetworkInterface":
        """The NI of ``host``, built now if it does not exist yet."""
        ni = self._by_host.get(host)
        if ni is None:
            if host not in self._buildable:
                raise KeyError(host)
            ni = self._build(host)
        return ni

    def get(self, host: Node) -> Optional["NetworkInterface"]:
        """The NI of ``host`` if it has been built, else ``None``."""
        return self._by_host.get(host)

    def build_all(self) -> None:
        """Build every host's NI that does not exist yet, in host order."""
        for host in self._hosts:
            self.lookup(host)

    def close(self) -> None:
        """Build nothing more; the built NIs stay.

        Drops the factory, whose closure refers back to this registry;
        :meth:`lookup` of a host never built then raises ``KeyError``.
        """
        self._build = None
        self._buildable = frozenset()

    def __iter__(self):
        return iter(self._by_host.values())


class NetworkInterface:
    """Base NI: send/receive engines without forwarding logic.

    Subclasses implement :meth:`on_packet` (what the coprocessor does
    with a received packet) and :meth:`inject_multicast` (how the source
    NI schedules the packets of a locally originated multicast).

    Parameters
    ----------
    env, registry, pool, params:
        Shared simulation state.
    host:
        The host node this NI serves.
    router:
        Object with ``route(src_host, dst_host) -> [channel keys]``.  A
        router whose ``fixed_routes`` attribute is true always returns
        the same route for a pair, so each destination's route is
        resolved once; any other router is asked at every send.
    """

    def __init__(
        self,
        env: Environment,
        host: Node,
        router,
        registry: NICRegistry,
        pool: ChannelPool,
        params: SystemParams,
        send_queue_cls: type = Store,
        ports: int = 1,
        channel_model: str = "path",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        if channel_model not in TRANSMITTERS:
            raise ValueError(
                f"unknown channel_model {channel_model!r}; choose from {sorted(TRANSMITTERS)}"
            )
        self._transmit = TRANSMITTERS[channel_model]
        self.env = env
        self.host = host
        self.router = router
        self._fixed_routes = getattr(router, "fixed_routes", False)
        # destination -> (channel keys, channels, receiving NI).
        self._routes: Dict[Node, tuple] = {}
        self.registry = registry
        self.pool = pool
        self.params = params
        self.ports = ports
        #: Span sink (repro.obs); the shared disabled singleton when
        #: tracing is off, so hot paths test one attribute.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.obs_track = self.tracer.track("sim", f"NI {host}")
        else:
            self.obs_track = None
        self.send_queue = send_queue_cls(env)
        self.recv_queue: Store = Store(env)
        #: Fault gate installed by :mod:`repro.faults.inject` (``None``
        #: = healthy NI; the engines test one attribute per packet, so
        #: the no-fault path stays within noise of the pre-fault code).
        self.fault_gate = None
        #: Delivery listener installed by :mod:`repro.sessions`
        #: (``None`` = no observer).  Called synchronously as
        #: ``listener(ni, packet)`` right after a delivery is recorded,
        #: so observing completions costs zero simulated time and the
        #: unobserved path tests one attribute, like :attr:`fault_gate`.
        self.delivery_listener = None
        #: Packets held for forwarding/replication at this NI.
        self.forward_buffer = LevelMonitor(env)
        #: (msg_id, packet_index) -> NI receive completion time.
        self.received_at: Dict[Tuple[int, int], float] = {}
        #: Children this NI forwards to, per message id (set by the
        #: multicast setup; empty tuple = pure leaf).
        self.forwarding: Dict[int, tuple] = {}
        registry.register(self)
        # One send engine per NI port; all drain the shared send queue
        # (the paper's model is one-port, ports > 1 is the multi-port
        # extension studied by the A10 bench).
        self._engines = [
            env.process(self._send_engine(), name=f"send{port}@{host}")
            for port in range(ports)
        ]
        self._engines.append(env.process(self._recv_engine(), name=f"recv@{host}"))

    def close(self) -> None:
        """Stop the engines and let go of the rest of the fabric.

        Called once a run's results are collected: the parked engines
        are closed, and the registry, route cache, delivery listener
        and fault gate are dropped, so nothing of the fabric refers back
        to this NI and the finished fabric is freed by reference
        counting.  The NI's own records (:attr:`received_at`,
        :attr:`forward_buffer`, :attr:`forwarding`) stay readable.
        """
        for engine in self._engines:
            engine.close()
        self._engines = []
        self._routes = {}
        self.registry = None
        self.delivery_listener = None
        self.fault_gate = None

    # -- engines ------------------------------------------------------------
    def _send_engine(self):
        routes = self._routes
        while True:
            job: SendJob = yield self.send_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.send_gate(job)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield self.params.t_ns
            route = routes.get(job.destination)
            if route is None:
                route = self._route_to(job.destination)
            keys, channels, receiver = route
            yield from self._transmit(self.env, channels, self.params)
            delivered = True
            if self.fault_gate is not None:
                delivered = not (yield from self.fault_gate.link_gate(keys, job))
            if self.tracer.enabled:
                self.tracer.complete(
                    "send",
                    self.obs_track,
                    start,
                    self.env.now,
                    cat="ni",
                    args={
                        "src": str(self.host),
                        "dst": str(job.destination),
                        "msg": job.packet.msg_id,
                        "pkt": getattr(job.packet, "index", None),
                    },
                )
            if job.on_sent is not None:
                job.on_sent()
            if delivered:
                receiver.recv_queue.put_nowait(job.packet)

    def _route_to(self, destination: Node) -> tuple:
        """``(channel keys, channels, receiving NI)`` of a send to ``destination``.

        Cached per destination when the router's routes are fixed.
        """
        keys = self.router.route(self.host, destination)
        route = (keys, self.pool.resolve(keys), self.registry.lookup(destination))
        if self._fixed_routes:
            self._routes[destination] = route
        return route

    def _recv_engine(self):
        while True:
            payload = yield self.recv_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.recv_gate(payload)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield self.params.t_nr
            self._receive(payload, start)

    def _receive(self, packet: Packet, start: float) -> None:
        """Record the delivery (a second one is a forwarding bug), then forward.

        ``start`` is when ``t_nr`` began; the reliable NI overrides this step.
        """
        key = (packet.message.msg_id, packet.index)
        if key in self.received_at:
            raise RuntimeError(f"duplicate delivery of {packet!r} at {self.host!r}")
        self.received_at[key] = self.env.now
        if self.delivery_listener is not None:
            self.delivery_listener(self, packet)
        if self.tracer.enabled:
            args = {"msg": packet.message.msg_id, "pkt": packet.index}
            self.tracer.complete("recv", self.obs_track, start, self.env.now, cat="ni", args=args)
            self.tracer.instant("deliver", self.obs_track, cat="ni", args=dict(args))
        self.on_packet(packet)

    # -- discipline hooks -----------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Forwarding behaviour on packet reception (subclass hook)."""
        raise NotImplementedError

    def inject_multicast(self, tree: "MulticastTree", message):
        """Process generator: source-side injection of ``message``.

        Must be started at the *source* host's NI.  The caller (the
        multicast simulator) creates the message up front so forwarding
        tables can be installed at every NI before any packet moves.
        """
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------
    def _log_buffer_level(self) -> None:
        """One ``buffer <host>`` counter sample (callers test ``tracer.enabled``)."""
        self.tracer.counter(f"buffer {self.host}", self.obs_track, self.forward_buffer.level)

    def _enqueue_copies(self, packet: Packet, children: tuple) -> None:
        """Queue one send per child, holding the buffer until the last copy."""
        if not children:
            return
        self.forward_buffer.change(+1)
        if self.tracer.enabled:
            self._log_buffer_level()
        remaining = len(children)

        def one_sent() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self.forward_buffer.change(-1)
                if self.tracer.enabled:
                    self._log_buffer_level()

        for child in children:
            self.send_queue.put_nowait(SendJob(packet, child, on_sent=one_sent))

    def message_complete(self, message) -> bool:
        """Has this NI received every packet of ``message``?"""
        return all(
            (message.msg_id, i) in self.received_at for i in range(message.num_packets)
        )
