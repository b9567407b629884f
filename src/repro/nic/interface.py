"""The network interface model (Fig. 1): queues, coprocessor, DMA.

Every host owns one :class:`NetworkInterface`.  Two always-on coprocessor
loops model its behaviour:

* the **send engine** drains the send queue one :class:`SendJob` at a
  time: ``t_ns`` of coprocessor overhead, then a wormhole transmission
  (path acquisition + wire time) to the destination NI's receive queue.
  Back-to-back sends therefore serialize on the NI, which is what makes
  a node's fan-out the pipeline bottleneck in §4.1's model;
* the **receive engine** drains the receive queue: ``t_nr`` of
  coprocessor overhead per packet, then hands the packet to the
  forwarding discipline hook :meth:`on_packet` (conventional / FCFS /
  FPFS subclasses) and records delivery.

Forwarding buffer occupancy (packets the coprocessor must hold for
replication, §2.5) is tracked in a :class:`~repro.sim.monitor.LevelMonitor`
so the FCFS-vs-FPFS buffer claim can be *measured*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..network.links import ChannelPool
from ..network.topology import Node
from ..network.wormhole import transmit
from ..obs.tracer import NULL_TRACER, Tracer
from ..params import SystemParams
from ..sim import Environment, LevelMonitor, Store, Timeout, Trace
from .packets import Packet

#: Available channel-occupancy models for the send engine.
TRANSMITTERS = {"path": transmit}


def _windowed(env, pool, route, params):  # lazy import avoids cycle churn
    from ..network.wormhole import transmit_windowed

    return transmit_windowed(env, pool, route, params)


TRANSMITTERS["worm"] = _windowed

if TYPE_CHECKING:  # pragma: no cover
    from ..core.trees import MulticastTree

__all__ = ["SendJob", "NetworkInterface", "NICRegistry"]


@dataclass(frozen=True)
class SendJob:
    """One packet transmission queued at an NI.

    ``on_sent`` (if set) runs when the packet's tail has left — the
    moment the NI may drop its buffered copy for this child.
    """

    packet: Packet
    destination: Node
    on_sent: Optional[Callable[[], None]] = None


class NICRegistry:
    """host → NI lookup shared by all interfaces of one simulation."""

    def __init__(self) -> None:
        self._by_host: Dict[Node, "NetworkInterface"] = {}

    def register(self, ni: "NetworkInterface") -> None:
        if ni.host in self._by_host:
            raise ValueError(f"host {ni.host!r} already has an NI")
        self._by_host[ni.host] = ni

    def lookup(self, host: Node) -> "NetworkInterface":
        return self._by_host[host]

    def __iter__(self):
        return iter(self._by_host.values())


class NetworkInterface:
    """Base NI: send/receive engines without forwarding logic.

    Subclasses implement :meth:`on_packet` (what the coprocessor does
    with a received packet) and :meth:`inject_multicast` (how the source
    NI schedules the packets of a locally originated multicast).

    Parameters
    ----------
    env, registry, pool, params, trace:
        Shared simulation state.
    host:
        The host node this NI serves.
    router:
        Object with ``route(src_host, dst_host) -> [channel keys]``.
    """

    def __init__(
        self,
        env: Environment,
        host: Node,
        router,
        registry: NICRegistry,
        pool: ChannelPool,
        params: SystemParams,
        trace: Optional[Trace] = None,
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
        self.registry = registry
        self.pool = pool
        self.params = params
        self.ports = ports
        self.trace = trace if trace is not None else Trace(env, enabled=False)
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
        for port in range(ports):
            env.process(self._send_engine(), name=f"send{port}@{host}")
        env.process(self._recv_engine(), name=f"recv@{host}")

    # -- engines ------------------------------------------------------------
    def _send_engine(self):
        while True:
            job: SendJob = yield self.send_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.send_gate(job)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield Timeout(self.env, self.params.t_ns)
            route = self.router.route(self.host, job.destination)
            yield from self._transmit(self.env, self.pool, route, self.params)
            delivered = True
            if self.fault_gate is not None:
                delivered = not (yield from self.fault_gate.link_gate(route, job))
            if self.trace.enabled:
                self.trace.log(
                    "ni_send",
                    src=self.host,
                    dst=job.destination,
                    msg=job.packet.message.msg_id,
                    pkt=job.packet.index,
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "send",
                    self.obs_track,
                    start,
                    self.env.now,
                    cat="ni",
                    args={
                        "dst": str(job.destination),
                        "msg": job.packet.message.msg_id,
                        "pkt": job.packet.index,
                    },
                )
            if job.on_sent is not None:
                job.on_sent()
            if delivered:
                self.registry.lookup(job.destination).recv_queue.put_nowait(job.packet)

    def _recv_engine(self):
        while True:
            packet: Packet = yield self.recv_queue.get()
            if self.fault_gate is not None and (yield from self.fault_gate.recv_gate(packet)):
                continue
            start = self.env.now if self.tracer.enabled else 0.0
            yield Timeout(self.env, self.params.t_nr)
            key = (packet.message.msg_id, packet.index)
            if key in self.received_at:
                raise RuntimeError(f"duplicate delivery of {packet!r} at {self.host!r}")
            self.received_at[key] = self.env.now
            if self.delivery_listener is not None:
                self.delivery_listener(self, packet)
            if self.trace.enabled:
                self.trace.log(
                    "ni_recv", host=self.host, msg=packet.message.msg_id, pkt=packet.index
                )
            if self.tracer.enabled:
                self.tracer.complete(
                    "recv",
                    self.obs_track,
                    start,
                    self.env.now,
                    cat="ni",
                    args={"msg": packet.message.msg_id, "pkt": packet.index},
                )
                self.tracer.instant(
                    "deliver",
                    self.obs_track,
                    cat="ni",
                    args={"msg": packet.message.msg_id, "pkt": packet.index},
                )
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
    def _log_forward(self, packet: Packet, children: tuple) -> None:
        """Unified forwarding vocabulary: one ``ni_forward`` per fan-out.

        Every discipline (FCFS, FPFS, conventional, reliable) announces
        "this packet's copies are now queued for these children" through
        the same record, so buffer/timeline claims compare like for
        like.  Callers guard on ``trace.enabled``/``tracer.enabled``.
        """
        self.trace.log(
            "ni_forward",
            host=self.host,
            msg=packet.message.msg_id,
            pkt=packet.index,
            children=len(children),
        )

    def _log_buffer_level(self) -> None:
        """Unified ``ni_buffer`` sample of the forwarding-buffer level."""
        self.trace.log("ni_buffer", host=self.host, level=self.forward_buffer.level)
        if self.tracer.enabled:
            self.tracer.counter(
                f"buffer {self.host}", self.obs_track, self.forward_buffer.level
            )

    def _enqueue_copies(self, packet: Packet, children: tuple) -> None:
        """Queue one send per child, holding the buffer until the last copy."""
        if not children:
            return
        self.forward_buffer.change(+1)
        if self.trace.enabled or self.tracer.enabled:
            self._log_forward(packet, children)
            self._log_buffer_level()
        remaining = len(children)

        def one_sent() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self.forward_buffer.change(-1)
                if self.trace.enabled or self.tracer.enabled:
                    self._log_buffer_level()

        for child in children:
            self.send_queue.put_nowait(SendJob(packet, child, on_sent=one_sent))

    def message_complete(self, message) -> bool:
        """Has this NI received every packet of ``message``?"""
        return all(
            (message.msg_id, i) in self.received_at for i in range(message.num_packets)
        )
