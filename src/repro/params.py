"""System and technology parameters.

Defaults reproduce the paper's §5.2 settings: ``t_s`` (software start-up
overhead at the sending host) = 12.5 µs, ``t_r`` (software overhead at
the receiving host) = 12.5 µs, 64-byte packets, ``t_ns`` (network
interface send overhead per packet) = 3.0 µs and ``t_nr`` (network
interface receive overhead per packet) = 2.0 µs.

The paper does not publish its sub-NI technology constants (per-switch
routing delay, link bandwidth); DESIGN.md §5 records the values chosen
here and why.  All times are microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .durable.errors import ValidationError


@dataclass(frozen=True)
class SystemParams:
    """Timing/technology parameters of the simulated system.

    Attributes
    ----------
    t_s:
        Software start-up overhead at the source host processor (paid
        once per multicast with smart NI support; once per *hop* with
        conventional support).
    t_r:
        Software receive overhead at a destination host processor.
    t_ns:
        NI coprocessor overhead to inject one packet into the network.
    t_nr:
        NI coprocessor overhead to accept one packet from the network.
    packet_bytes:
        Fixed network packet size.
    t_switch:
        Per-hop header routing delay inside a switch (wormhole header
        progression).
    link_bandwidth:
        Link bandwidth in bytes/µs; a packet occupies the acquired path
        for ``packet_bytes / link_bandwidth`` µs.
    t_dma:
        NI↔host DMA transfer time per packet (conventional forwarding
        pays this on both sides of every hop).
    """

    t_s: float = 12.5
    t_r: float = 12.5
    t_ns: float = 3.0
    t_nr: float = 2.0
    packet_bytes: int = 64
    t_switch: float = 0.2
    link_bandwidth: float = 160.0
    t_dma: float = 0.5
    flit_bytes: int = 8

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so each test also
        # refuses NaN; the upper bound refuses infinities, as
        # MachineParams does.
        for name in ("t_s", "t_r", "t_ns", "t_nr", "t_switch", "t_dma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be non-negative and finite, got {value}")
        if self.packet_bytes <= 0:
            raise ValidationError("packet_bytes must be positive")
        if not 0 < self.link_bandwidth < math.inf:
            raise ValidationError(
                f"link_bandwidth must be positive and finite, got {self.link_bandwidth}"
            )
        if self.flit_bytes <= 0:
            raise ValidationError("flit_bytes must be positive")

    @property
    def wire_time(self) -> float:
        """Time for a packet's flits to cross an acquired path (µs)."""
        return self.packet_bytes / self.link_bandwidth

    @property
    def t_step(self) -> float:
        """Abstract per-step cost of the paper's analytic model (µs).

        §2.5: a *step* is the transmission of one packet NI-to-NI and
        costs send overhead + propagation + receive overhead.  The
        propagation component uses one switch hop plus wire time as a
        representative value.
        """
        return self.t_ns + self.t_switch + self.wire_time + self.t_nr

    @property
    def worm_flits(self) -> int:
        """Flits per packet — the worm's length in channel slots."""
        return -(-self.packet_bytes // self.flit_bytes)

    @property
    def flit_cycle(self) -> float:
        """Time for one flit to cross a channel (µs)."""
        return self.flit_bytes / self.link_bandwidth

    def packets_for(self, message_bytes: int) -> int:
        """Number of fixed-size packets for a message of ``message_bytes``."""
        if message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        return -(-message_bytes // self.packet_bytes)

    def with_(self, **overrides) -> "SystemParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


#: The paper's default parameter set.
PAPER_PARAMS = SystemParams()


@dataclass(frozen=True)
class MachineParams:
    """The analytic-model view of a machine, as the plan service sees it.

    :class:`SystemParams` carries the full DES technology vector; the
    planner only needs the four numbers of the paper's step model plus
    the NI port count, and it needs them *hashable* (plan requests are
    deduplicated on ``(n, m, MachineParams)``) and *validated at
    construction* — a malformed service request must fail at the parse
    boundary with a clear message, not deep inside tree construction.

    Attributes
    ----------
    t_s, t_r:
        Host software send/receive overheads (µs), as in
        :class:`SystemParams` but required to be strictly positive (a
        zero-overhead host is a degenerate model the service refuses).
    t_step:
        Cost of one NI-to-NI packet step (µs); defaults to the paper
        parameters' composed :attr:`SystemParams.t_step`.
    t_sq:
        §3.3's send-queue push time (µs) — the unit of the FPFS buffer
        residence bound ``c · t_sq``.
    ports:
        NI injection ports (the paper's model is one-port).
    """

    t_s: float = PAPER_PARAMS.t_s
    t_r: float = PAPER_PARAMS.t_r
    t_step: float = PAPER_PARAMS.t_step
    t_sq: float = 1.0
    ports: int = 1

    def __post_init__(self) -> None:
        for name in ("t_s", "t_r", "t_step", "t_sq"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"{name} must be a number, got {value!r}")
            # `not value > 0` also rejects NaN (all comparisons false);
            # infinities are finite-model poison and refused explicitly.
            if not value > 0 or math.isinf(value):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if isinstance(self.ports, bool) or not isinstance(self.ports, int):
            raise ValidationError(f"ports must be an integer, got {self.ports!r}")
        if self.ports < 1:
            raise ValidationError(f"ports must be >= 1, got {self.ports}")

    @classmethod
    def from_system(
        cls, params: SystemParams, t_sq: float = 1.0, ports: int = 1
    ) -> "MachineParams":
        """Project a full :class:`SystemParams` onto the planner's view."""
        return cls(
            t_s=params.t_s, t_r=params.t_r, t_step=params.t_step, t_sq=t_sq, ports=ports
        )

    def to_dict(self) -> dict:
        """JSON-serializable wire form (inverse of :meth:`from_dict`).

        The fields in declaration order, as ``dataclasses.asdict`` gives
        them, without its per-field deep copy: the router re-encodes
        ``params`` for every plan it forwards.
        """
        return {
            "t_s": self.t_s,
            "t_r": self.t_r,
            "t_step": self.t_step,
            "t_sq": self.t_sq,
            "ports": self.ports,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MachineParams":
        """Parse the wire form, rejecting unknown keys with a clear error."""
        if not isinstance(payload, dict):
            raise ValidationError(f"params must be an object, got {type(payload).__name__}")
        known = {"t_s", "t_r", "t_step", "t_sq", "ports"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(f"unknown params fields: {unknown}; expected {sorted(known)}")
        return cls(**payload)


#: The planner's default machine: the paper's timing, unit t_sq, one port.
PAPER_MACHINE = MachineParams()
