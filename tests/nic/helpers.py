"""Shared mini-fixtures for NI behaviour tests.

``star(n)`` builds a single-switch network: every host route is exactly
two channels (host→switch→host) and host links never contend between
different destination pairs, so NI-level timing is hand-checkable.
"""

from __future__ import annotations

from repro.network import Topology, UpDownRouter, switch
from repro.params import SystemParams

#: Round-number timing: each send = t_ns(1) + wire(1); each receive = 1.
FAST = SystemParams(
    t_s=10.0,
    t_r=10.0,
    t_ns=1.0,
    t_nr=1.0,
    packet_bytes=64,
    t_switch=0.0,
    link_bandwidth=64.0,
    t_dma=0.5,
)


def star(n_hosts: int):
    topo = Topology(switch_ports=None)
    topo.add_switch(0)
    for i in range(n_hosts):
        topo.add_host(i, switch(0))
    return topo, UpDownRouter(topo)


def ni_events(tracer, name: str):
    """``(host, event)`` for every ``name`` event an NI recorded on ``tracer``.

    Each NI records on its own track, named ``NI <host>`` once by
    :meth:`repro.obs.Tracer.track`; ``host`` is that label (``str`` of
    the host node).
    """
    hosts = {
        (e.pid, e.tid): e.args["name"][len("NI "):]
        for e in tracer.events
        if e.ph == "M" and e.name == "thread_name" and e.args["name"].startswith("NI ")
    }
    return [(hosts[e.pid, e.tid], e) for e in tracer.events if e.name == name]
