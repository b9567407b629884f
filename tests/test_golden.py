"""Golden regression pins: exact values frozen from the validated build.

Unlike the shape assertions elsewhere, these pin *specific floats*.
Deliberate model changes will trip them — that is the point: any edit
that silently moves the numbers the reproduction was validated on must
be noticed and the EXPERIMENTS.md record re-baselined.
"""

from __future__ import annotations

import pytest

from repro import Machine
from repro.analysis import ExperimentConfig
from repro.analysis.experiments import binomial, kbinomial_optimal, sweep_latency

CFG = ExperimentConfig(n_topologies=1, n_dest_sets=2, seed=1234)


def test_golden_sweep_kbinomial():
    assert sweep_latency(31, 8, kbinomial_optimal, CFG) == pytest.approx(122.2)


def test_golden_sweep_binomial():
    assert sweep_latency(31, 8, binomial, CFG) == pytest.approx(201.3)


def test_golden_machine_multicast():
    machine = Machine.irregular(seed=0)
    result = machine.multicast(machine.hosts[0], machine.hosts[1:16], 512)
    assert result.latency == pytest.approx(111.6)
    assert result.packet_completion[0] == pytest.approx(42.1)
    assert result.packet_completion[1] == pytest.approx(49.9)


#: Fig. 13(b) at CFG: k-binomial latency per m, over DEST_AXIS (7..63).
GOLDEN_FIG13B = {
    8: [97.80000000000013, 115.4000000000002, 119.60000000000021, 122.20000000000022,
        128.80000000000024, 125.9000000000002, 133.90000000000026, 132.80000000000024],
    4: [74.80000000000004, 81.40000000000006, 86.40000000000008, 87.8000000000001,
        93.80000000000011, 92.70000000000009, 99.20000000000013, 99.2000000000001],
    2: [55.9, 64.40000000000002, 68.60000000000004, 70.60000000000002,
        74.90000000000003, 74.00000000000003, 78.90000000000005, 80.30000000000004],
    1: [43.39999999999999, 49.699999999999996, 55.6, 55.7,
        62.10000000000001, 61.70000000000001, 61.800000000000004, 61.7],
}
#: Fig. 14(b) at CFG: binomial latency per m (k-binomial is Fig. 13(b)'s).
GOLDEN_FIG14B_BINOMIAL = {
    8: [130.90000000000026, 168.0000000000001, 196.09999999999988, 201.29999999999984,
        230.29999999999956, 234.29999999999956, 233.5999999999996, 236.6999999999996],
    2: [55.9, 66.60000000000002, 74.30000000000004, 76.50000000000003,
        82.20000000000006, 84.90000000000006, 84.80000000000007, 86.70000000000006],
}


def test_golden_fig13b_series():
    """Exact: the sparse points (7-63 destinations on the 64-host
    testbed) leave most NIs of a fabric idle."""
    from repro.analysis.experiments import fig13b_latency_vs_n

    assert fig13b_latency_vs_n(CFG) == GOLDEN_FIG13B


def test_golden_fig14b_series():
    from repro.analysis.experiments import fig14b_comparison_vs_n

    series = fig14b_comparison_vs_n(CFG)
    assert series == {
        m: {"binomial": GOLDEN_FIG14B_BINOMIAL[m], "kbinomial": GOLDEN_FIG13B[m]}
        for m in (8, 2)
    }


def test_golden_analytics():
    # These are exact integers; no approx needed.
    from repro.core import coverage, fpfs_total_steps, build_kbinomial_tree, optimal_k

    assert coverage(8, 2) == 88
    assert optimal_k(64, 8) == 2
    assert fpfs_total_steps(build_kbinomial_tree(list(range(64)), 2), 8) == 22


# ---------------------------------------------------------------------------
# Optimal-k goldens: the figures and the §5.1 table through optimal_k,
# and the same series out of an explicit AnalyticSurface, so the table
# builder keeps the exact values the figures were validated on.
# ---------------------------------------------------------------------------

#: Fig. 12(a): optimal k vs message length (m = 1..35) per dest count.
GOLDEN_FIG12A_63 = [6, 3] + [2] * 33
GOLDEN_FIG12A_15 = [4] + [2] * 10 + [1] * 24
#: Fig. 12(b): optimal k vs system size (n = 2..64) per packet count.
GOLDEN_FIG12B_M1 = [1] + [2] * 2 + [3] * 4 + [4] * 8 + [5] * 16 + [6] * 32
GOLDEN_FIG12B_M8 = [1] * 10 + [2] * 53
#: §5.1 NI table runs: (first m of the run, k) breakpoints per n.
GOLDEN_SEC51_RUNS = {
    8: [(1, 3), (3, 2), (5, 1)],
    16: [(1, 4), (2, 2), (12, 1)],
    32: [(1, 5), (2, 2), (27, 1)],
    64: [(1, 6), (2, 3), (3, 2)],
}


@pytest.fixture(scope="module")
def fig12_surface():
    from repro.core import AnalyticSurface

    return AnalyticSurface.build(64, 35)


def test_golden_fig12a():
    from repro.analysis import fig12a_optimal_k

    series = fig12a_optimal_k()
    assert series[63] == GOLDEN_FIG12A_63
    assert series[15] == GOLDEN_FIG12A_15


def test_golden_fig12a_surface_path(fig12_surface):
    grid = fig12_surface.optimal_k_grid([64, 16], range(1, 36))
    assert grid.tolist() == [GOLDEN_FIG12A_63, GOLDEN_FIG12A_15]


def test_golden_fig12b():
    from repro.analysis import fig12b_optimal_k

    series = fig12b_optimal_k()
    assert series[1] == GOLDEN_FIG12B_M1
    assert series[8] == GOLDEN_FIG12B_M8


def test_golden_fig12b_surface_path(fig12_surface):
    grid = fig12_surface.optimal_k_grid(range(2, 65), [1, 8])
    assert grid.T.tolist() == [GOLDEN_FIG12B_M1, GOLDEN_FIG12B_M8]


def test_golden_sec51_table():
    from repro.core import OptimalKTable

    table = OptimalKTable(n_max=64, m_max=32)
    for n, runs in GOLDEN_SEC51_RUNS.items():
        assert table.runs_for(n) == runs, n
    assert table.memory_entries == 199


def test_golden_sec51_table_surface_path(fig12_surface):
    """The same breakpoints read off the surface's m = 1..32 rows."""
    runs = {}
    for n, row in zip(range(2, 65), fig12_surface.optimal_k_grid(range(2, 65), range(1, 33))):
        starts = [m for m in range(1, 33) if m == 1 or row[m - 1] != row[m - 2]]
        runs[n] = [(m, int(row[m - 1])) for m in starts]
    for n, golden in GOLDEN_SEC51_RUNS.items():
        assert runs[n] == golden, n
    assert sum(len(r) for r in runs.values()) == 199
