"""Differential harness: full DES vs the paper's pipelined-latency theory.

On a contention-free fabric (a single-switch star: every same-step send
pair is channel-disjoint) with step-aligned parameters, the simulator's
completion time is an exact integer multiple of the step cost, so the
DES can be compared against the theorems *exactly*, point for point
over an (n, k, m) grid:

* **DES ≡ exact scheduler** — simulated FPFS step counts equal
  ``fpfs_total_steps`` for every (n, k, m).
* **DES ≡ Theorem 1/2** — on k-binomial trees satisfying the theorems'
  premise (no interior node out-fans the root — all perfect-size trees
  ``n = N(s, k)`` do, plus many slack trees), the simulated step count
  equals the closed form ``T1 + (m - 1) · k_T`` exactly.
* **Theorem 2 as an upper bound** — for the remaining slack trees the
  closed form priced at the fan-out *cap* still bounds the DES.
* **FPFS ≤ FCFS** — point for point, the paper's §3 claim.

The full grid is marked ``slow`` (tier-1 skips it via ``-m "not
slow"``); a reduced smoke grid always runs.

The second half of this file is the other differential axis: the
vectorized :class:`~repro.core.surface.AnalyticSurface` tables against
the scalar searches every runtime caller uses (:func:`optimal_k`,
:func:`optimal_k_exact`, the Lemma-1 recurrences).  Every surface table
must be *bit-equal* to them — exhaustively over ``n ∈ [2, 512] ×
m ∈ [1, 64]`` for the paper variant, and over a reduced grid (plus a
slow-marked full one) for the exact variant.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AnalyticSurface,
    build_kbinomial_tree,
    coverage,
    fcfs_total_steps,
    fpfs_total_steps,
    min_k_binomial,
    optimal_k,
    optimal_k_exact,
    predicted_steps,
    steps_needed,
    theorem2_steps,
)
from repro.mcast import MulticastSimulator
from repro.network import Topology, UpDownRouter, host, switch
from repro.nic import FCFSInterface
from repro.params import PAPER_MACHINE, MachineParams, SystemParams

#: Step-aligned parameters: one send = t_ns(1) + wire(1) = 2 units, no
#: host overheads, so DES completion time == steps * STEP_COST exactly.
STEP_PARAMS = SystemParams(
    t_s=0.0,
    t_r=0.0,
    t_ns=1.0,
    t_nr=0.0,
    t_switch=0.0,
    link_bandwidth=64.0,
    packet_bytes=64,
)
STEP_COST = STEP_PARAMS.t_ns + STEP_PARAMS.wire_time

MAX_NODES = 24


def _star(n_hosts: int):
    """Single-switch star: pairwise-disjoint routes => contention-free."""
    topo = Topology()
    topo.add_switch(0)
    for i in range(n_hosts):
        topo.add_host(i, switch(0))
    return topo, UpDownRouter(topo)


_TOPO, _ROUTER = _star(MAX_NODES)


def _des_steps(tree, m, ni_class=None) -> int:
    """Simulated step count (completion time / step cost, exact)."""
    kwargs = {} if ni_class is None else {"ni_class": ni_class}
    simulator = MulticastSimulator(_TOPO, _ROUTER, params=STEP_PARAMS, **kwargs)
    completion = simulator.run(tree, m).completion_time
    steps = completion / STEP_COST
    assert steps == round(steps), f"non-integral step count {steps}"
    return round(steps)


def _check_point(n: int, k: int, m: int) -> None:
    """All four differential assertions for one (n, k, m) point."""
    tree = build_kbinomial_tree([host(i) for i in range(n)], k)
    exact = fpfs_total_steps(tree, m)
    des = _des_steps(tree, m)

    # DES == exact step scheduler, always.
    assert des == exact, (n, k, m)

    # DES == Theorem 1/2 closed form whenever the theorems' premise
    # (no interior node out-fans the root) holds.
    t1 = steps_needed(n, k)
    if tree.max_fanout <= tree.root_fanout:
        predicted = theorem2_steps(t1, m, tree.root_fanout)
        assert des == predicted, (n, k, m, des, predicted)
    # Priced at the cap, Theorem 2 bounds every constructed tree.
    assert des <= theorem2_steps(t1, m, k), (n, k, m)

    # FPFS never loses to FCFS (§3.1/§3.2).
    des_fcfs = _des_steps(tree, m, ni_class=FCFSInterface)
    assert des <= des_fcfs, (n, k, m)
    assert des_fcfs == fcfs_total_steps(tree, m), (n, k, m)


@pytest.mark.parametrize("n", [4, 9, 16])
@pytest.mark.parametrize("m", [1, 3])
def test_differential_smoke_grid(n, m):
    """Reduced always-on grid: every legal k for a few (n, m)."""
    for k in range(1, min_k_binomial(n) + 1):
        _check_point(n, k, m)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(2, MAX_NODES + 1))
def test_differential_full_grid(n):
    """Every (k, m) for every n up to the star's size."""
    for k in range(1, min_k_binomial(n) + 1):
        for m in (1, 2, 4, 8):
            _check_point(n, k, m)


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_differential_perfect_trees_meet_theorem2(k):
    """Perfect sizes n = N(s, k) always satisfy the theorem premise."""
    for s in range(1, 6):
        n = coverage(s, k)
        if n > MAX_NODES:
            break
        tree = build_kbinomial_tree([host(i) for i in range(n)], k)
        assert tree.max_fanout <= tree.root_fanout
        for m in (1, 2, 4, 8):
            assert _des_steps(tree, m) == theorem2_steps(s, m, tree.root_fanout)


# ---------------------------------------------------------------------------
# Surface ≡ optimal_k: the vectorized tables against the scalar search.
# ---------------------------------------------------------------------------

#: Full equivalence grid of the issue: n ∈ [2, 512], m ∈ [1, 64].
SURFACE_N_MAX = 512
SURFACE_M_MAX = 64

#: Reduced exact-variant grid (one FPFS schedule per (n, k) is costly);
#: the slow-marked test below widens it.
EXACT_N_MAX = 40
EXACT_M_MAX = 12

#: Two machine views: the paper's §5.2 machine and a faster two-port
#: one — the surface latency must agree with the model under both.
MACHINE_PRESETS = [
    PAPER_MACHINE,
    MachineParams(t_s=5.0, t_r=7.5, t_step=2.25, t_sq=0.5, ports=2),
]
PRESET_IDS = ["paper", "fast-2port"]


@pytest.fixture(scope="module")
def paper_surface():
    """One full-grid surface shared by the equivalence tests (read-only)."""
    return AnalyticSurface.build(SURFACE_N_MAX, SURFACE_M_MAX)


def test_surface_coverage_bit_equal(paper_surface):
    """Every stored Lemma-1 column entry equals the scalar recurrence."""
    for k in range(1, paper_surface.k_max + 1):
        s = 0
        while True:
            try:
                stored = paper_surface.coverage(s, k)
            except KeyError:
                break
            assert stored == coverage(s, k), (s, k)
            s += 1
        # Each column carries everything below n_max plus one sentinel.
        assert paper_surface.coverage(s - 1, k) >= SURFACE_N_MAX, k


def test_surface_steps_needed_bit_equal(paper_surface):
    """T1(n, k) from searchsorted == the scalar search, every (n, k)."""
    for n in range(1, SURFACE_N_MAX + 1):
        for k in range(1, paper_surface.k_max + 1):
            assert paper_surface.steps_needed(n, k) == steps_needed(n, k), (n, k)
    # k beyond the last stored column clamps without changing T1.
    for n in (2, 100, 511, 512):
        assert paper_surface.steps_needed(n, 64) == steps_needed(n, 64), n


def test_surface_optimal_k_bit_equal_exhaustive(paper_surface):
    """Theorem-3 argmin bit-equal to the scalar search over the full grid.

    This is the issue's headline check: every (n, m) with
    n ∈ [2, 512], m ∈ [1, 64], including the scalar loop's
    ties-to-largest-k behavior.
    """
    n_values = range(2, SURFACE_N_MAX + 1)
    m_values = range(1, SURFACE_M_MAX + 1)
    grid = paper_surface.optimal_k_grid(n_values, m_values)
    for i, n in enumerate(n_values):
        for j, m in enumerate(m_values):
            assert grid[i, j] == optimal_k(n, m), (n, m)


def test_surface_optimal_steps_bit_equal_sampled(paper_surface):
    """The minimized objective matches Theorem 3 priced at the scalar k."""
    for n in (2, 3, 7, 16, 63, 100, 255, 512):
        for m in (1, 2, 8, 33, 64):
            k = optimal_k(n, m)
            assert paper_surface.optimal_steps(n, m) == predicted_steps(n, k, m), (n, m)


@pytest.mark.parametrize("ports", [1, 2])
def test_surface_optimal_k_exact_bit_equal(ports):
    """Exact-variant tables == scalar FPFS search (ties to smallest k)."""
    surf = AnalyticSurface.build(EXACT_N_MAX, EXACT_M_MAX, exact=True, ports=ports)
    for n in range(2, EXACT_N_MAX + 1):
        for m in (1, 2, 3, 5, 8, EXACT_M_MAX):
            assert surf.optimal_k_exact(n, m, ports=ports) == optimal_k_exact(
                n, m, ports=ports
            ), (n, m, ports)


@pytest.mark.slow
def test_surface_optimal_k_exact_bit_equal_full():
    """Wider exact-variant grid, every m (weekly tier)."""
    surf = AnalyticSurface.build(96, 32, exact=True)
    for n in range(2, 97):
        for m in range(1, 33):
            assert surf.optimal_k_exact(n, m) == optimal_k_exact(n, m), (n, m)


@pytest.mark.parametrize("params", MACHINE_PRESETS, ids=PRESET_IDS)
def test_surface_latency_bit_equal(paper_surface, params):
    """µs latency from the surface == the model formula at the scalar k."""
    full = paper_surface.latency_surface(params)
    for n in (2, 5, 16, 63, 128, 512):
        for m in (1, 4, 35, 64):
            k = optimal_k(n, m)
            expected = params.t_s + predicted_steps(n, k, m) * params.t_step + params.t_r
            assert paper_surface.latency_us(n, m, params) == expected, (n, m)
            assert full[n, m - 1] == expected, (n, m)


# ---------------------------------------------------------------------------
# Third differential axis: a single session through SessionSimulator
# must be *bit-identical* to a bare MulticastSimulator run.  The
# session layer adds an arbiter, a delivery listener, and per-session
# planning — none of which may perturb simulated time when there is
# nothing to contend with.
# ---------------------------------------------------------------------------


def _result_fields(result):
    """All MulticastResult fields except the auto-numbered msg_id.

    ``message.destinations`` is compared as a set: the solo simulator
    lists destinations in chain order, the session in declared order.
    """
    return (
        result.latency,
        result.completion_time,
        result.packet_completion,
        result.destination_completion,
        result.peak_buffers,
        result.blocked_time,
        result.message.source,
        frozenset(result.message.destinations),
        result.message.num_packets,
    )


@pytest.mark.parametrize("scheduler", ["fifo", "rr"])
@pytest.mark.parametrize("n,m", [(4, 1), (9, 4), (16, 8)])
def test_single_session_bit_equal_to_simulator(scheduler, n, m):
    """Degenerate one-session case == MulticastSimulator, bit for bit."""
    from repro.mcast.orderings import chain_for
    from repro.sessions import SCHEDULERS, Session, SessionSimulator

    ordering = [host(i) for i in range(MAX_NODES)]
    source, dests = ordering[0], tuple(ordering[1:n])
    chain = chain_for(source, list(dests), ordering)
    k = optimal_k(len(chain), m)
    tree = build_kbinomial_tree(chain, k)
    send_policy = SCHEDULERS[scheduler].send_policy
    solo = MulticastSimulator(
        _TOPO, _ROUTER, params=STEP_PARAMS, send_policy=send_policy
    ).run(tree, m)

    sim = SessionSimulator(
        _TOPO, _ROUTER, ordering, params=STEP_PARAMS, scheduler=scheduler
    )
    session = Session(source=source, destinations=dests, num_packets=m)
    result = sim.run_sessions([session])

    assert _result_fields(result.results[0].result) == _result_fields(solo)
    assert result.results[0].latency == solo.latency
    assert result.results[0].queueing_delay == 0.0


def test_single_session_bit_equal_on_paper_testbed():
    """Same degenerate-case guarantee on the paper's irregular fabric."""
    from repro.analysis.experiments import _testbed
    from repro.mcast.orderings import chain_for
    from repro.sessions import Session, SessionSimulator

    topology, router, ordering = _testbed(1997)
    source, dests = ordering[0], tuple(ordering[1:20])
    m = 8
    chain = chain_for(source, list(dests), ordering)
    tree = build_kbinomial_tree(chain, optimal_k(len(chain), m))
    solo = MulticastSimulator(topology, router).run(tree, m)
    sim = SessionSimulator(topology, router, ordering)
    result = sim.run_sessions(
        [Session(source=source, destinations=dests, num_packets=m)]
    )

    assert _result_fields(result.results[0].result) == _result_fields(solo)


def test_arrival_shift_translates_completion_exactly():
    """On an idle fabric a session arriving at A completes at C + A."""
    from repro.sessions import Session, SessionSimulator

    ordering = [host(i) for i in range(MAX_NODES)]
    source, dests = ordering[0], tuple(ordering[1:9])
    shift = 17.0

    def run_at(arrival):
        sim = SessionSimulator(_TOPO, _ROUTER, ordering, params=STEP_PARAMS)
        session = Session(
            source=source, destinations=dests, num_packets=4, arrival_time=arrival
        )
        return sim.run_sessions([session]).results[0]

    base, shifted = run_at(0.0), run_at(shift)
    assert shifted.result.completion_time == base.result.completion_time + shift
    assert shifted.latency == base.latency
    assert shifted.service_latency == base.service_latency
