"""Latency breakdown: where a multicast's microseconds go.

:func:`run_breakdown` re-runs one multicast with a
:class:`repro.obs.Tracer` and decomposes the aggregate work into the
§2.5 cost components, read from the NI spans:

* host start-up (``t_s``, once per multicast at the source);
* NI injection overhead (the sending NI's own ``t_ns`` per ``send``
  span — a slow host pays its scaled value);
* network occupancy (header routing + wire time per send, from the
  actual route lengths);
* channel blocking (time spent waiting on busy channels — the price of
  contention, zero for a depth contention-free tree on an idle fabric);
* NI receive overhead (the measured ``recv`` span durations);
* host receive (``t_r``, once per destination, paid after the NI).

The *aggregate* components sum over all packet transmissions (they
explain total work, not the critical path); ``critical_path_estimate``
scales them onto the measured latency for a per-component share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.trees import MulticastTree
from ..mcast.simulator import MulticastResult, MulticastSimulator
from ..obs.tracer import Tracer

__all__ = ["LatencyBreakdown", "run_breakdown"]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Aggregate component times (µs) for one simulated multicast."""

    result: MulticastResult
    host_startup: float
    injection: float
    network: float
    blocking: float
    receive: float
    host_receive: float
    sends: int

    @property
    def total_work(self) -> float:
        """Sum of all aggregate components."""
        return (
            self.host_startup
            + self.injection
            + self.network
            + self.blocking
            + self.receive
            + self.host_receive
        )

    def shares(self) -> Dict[str, float]:
        """Each component's fraction of the total work."""
        total = self.total_work
        return {
            "host_startup": self.host_startup / total,
            "injection": self.injection / total,
            "network": self.network / total,
            "blocking": self.blocking / total,
            "receive": self.receive / total,
            "host_receive": self.host_receive / total,
        }


def run_breakdown(
    simulator: MulticastSimulator, tree: MulticastTree, num_packets: int
) -> LatencyBreakdown:
    """Simulate ``tree`` with tracing and decompose the work.

    Runs a traced :meth:`~repro.mcast.simulator.MulticastSimulator.plain_copy`
    of ``simulator`` (same fabric, discipline, host speeds and channel
    model), so the caller's simulator is left untouched.
    """
    tracer = Tracer()
    traced = simulator.plain_copy(tracer=tracer)
    result = traced.run(tree, num_packets)
    params = simulator.params
    nis = {str(ni.host): ni for ni in traced.last_registry}

    injection = network = receive = 0.0
    sends = 0
    for event in tracer.events:
        if event.name == "send":
            sender = nis[event.args["src"]]
            hops = len(simulator.router.route(sender.host, nis[event.args["dst"]].host))
            injection += sender.params.t_ns
            network += hops * params.t_switch + params.wire_time
            sends += 1
        elif event.name == "recv":
            receive += event.dur

    return LatencyBreakdown(
        result=result,
        host_startup=params.t_s,
        injection=injection,
        network=network,
        blocking=result.blocked_time,
        receive=receive,
        host_receive=params.t_r,
        sends=sends,
    )
