"""Disabled tracing is free: no record objects on the sim hot path."""

from __future__ import annotations

import repro.obs.tracer as tracer_mod
from repro.machine import Machine
from repro.obs import Tracer


def _counting(cls, counter):
    def make(*args, **kwargs):
        counter.append(1)
        return cls(*args, **kwargs)

    return make


def test_untraced_run_allocates_no_records(monkeypatch):
    allocations = []
    monkeypatch.setattr(
        tracer_mod, "TraceEvent", _counting(tracer_mod.TraceEvent, allocations)
    )
    machine = Machine.irregular(seed=0)  # no tracer
    hosts = machine.hosts
    result = machine.multicast(hosts[0], hosts[1:16], 1024)
    assert result.latency > 0
    assert allocations == [], "disabled trace still allocated record objects"


def test_same_run_with_tracer_does_allocate(monkeypatch):
    # The counter harness itself must be able to see allocations,
    # otherwise the zero above is vacuous.
    allocations = []
    monkeypatch.setattr(
        tracer_mod, "TraceEvent", _counting(tracer_mod.TraceEvent, allocations)
    )
    machine = Machine.irregular(seed=0, tracer=Tracer())
    hosts = machine.hosts
    machine.multicast(hosts[0], hosts[1:16], 1024)
    assert allocations, "enabled tracer recorded nothing"


def test_traced_and_untraced_latencies_agree():
    untraced = Machine.irregular(seed=0)
    traced = Machine.irregular(seed=0, tracer=Tracer())
    a = untraced.multicast(untraced.hosts[0], untraced.hosts[1:16], 1024)
    b = traced.multicast(traced.hosts[0], traced.hosts[1:16], 1024)
    assert a.latency == b.latency, "observation changed the simulation"
