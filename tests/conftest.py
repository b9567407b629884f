"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.mcast.orderings import cco_ordering
from repro.network.irregular import build_irregular_network
from repro.network.karyn import KAryNCube
from repro.network.updown import UpDownRouter
from repro.params import SystemParams
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _reset_global_metrics():
    """Drop runtime provider registrations between tests.

    Simulators and plan servers register providers in
    ``repro.obs.GLOBAL_METRICS`` as a side effect of running; without a
    reset, metrics-asserting tests see whatever ran before them and
    become order-dependent.
    """
    from repro.obs import GLOBAL_METRICS
    from repro.sessions import SESSION_METRICS

    yield
    GLOBAL_METRICS.reset()
    # Session counters live outside the registry (they lazily
    # re-register as the "sessions" provider) — zero them too, or a
    # metrics-asserting session test sees its predecessors' runs.
    SESSION_METRICS.reset()


@pytest.fixture
def cold_memos():
    """Start from empty memos (:func:`repro.core.clear_caches`).

    The memos are per process, and a plan server answers a key already
    in its compact memo on the read loop.  A test that holds plans in
    the executor, or counts single-flight hits, needs keys that no
    earlier test in the process has planned.
    """
    from repro.core import clear_caches

    clear_caches()


@pytest.fixture
def plan_gate(monkeypatch):
    """A closed :class:`tests.service.helpers.PlanGate` on the plan
    service's executor, opened at teardown."""
    from .service.helpers import PlanGate

    gate = PlanGate(monkeypatch)
    yield gate
    gate.open()


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture(scope="session")
def paper_topology():
    """One seeded paper-scale irregular network (64 hosts, 16 switches)."""
    return build_irregular_network(seed=42)


@pytest.fixture(scope="session")
def paper_router(paper_topology):
    return UpDownRouter(paper_topology)


@pytest.fixture(scope="session")
def paper_ordering(paper_topology, paper_router):
    return cco_ordering(paper_topology, paper_router)


@pytest.fixture(scope="session")
def small_topology():
    """A small irregular network (4 switches, 8 hosts) for fast sims."""
    return build_irregular_network(n_switches=4, switch_ports=6, hosts_per_switch=2, seed=7)


@pytest.fixture(scope="session")
def small_router(small_topology):
    return UpDownRouter(small_topology)


@pytest.fixture(scope="session")
def torus_4x4():
    return KAryNCube(4, 2)


@pytest.fixture
def fast_params() -> SystemParams:
    """Simple round-number timing for hand-checkable sims."""
    return SystemParams(
        t_s=10.0,
        t_r=10.0,
        t_ns=1.0,
        t_nr=1.0,
        packet_bytes=64,
        t_switch=0.0,
        link_bandwidth=64.0,
        t_dma=0.5,
    )
