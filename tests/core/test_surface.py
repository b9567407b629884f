"""Unit tests for the analytic surface engine (:mod:`repro.core.surface`).

The differential suite proves the tables bit-equal to
:func:`~repro.core.optimal.optimal_k`; this file covers the machinery
around them — build validation, persistence failure modes through the
durable store, and the stale-surface regression: a surface built under
one machine view must never serve another's exact lookups.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import AnalyticSurface, optimal_k, optimal_k_exact
from repro.core.surface import MAX_N_MAX
from repro.durable.errors import StoreCorruptionError, StoreVersionError, ValidationError


# -- build validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_max": 1, "m_max": 4},
        {"n_max": 16, "m_max": 0},
        {"n_max": MAX_N_MAX * 2, "m_max": 4},
        {"n_max": 16, "m_max": 4, "exact": True, "ports": 0},
    ],
)
def test_build_rejects_bad_bounds(kwargs):
    with pytest.raises(ValidationError):
        AnalyticSurface.build(**kwargs)


def test_build_shapes_and_stats():
    surf = AnalyticSurface.build(64, 8)
    assert (surf.n_max, surf.m_max, surf.k_max) == (64, 8, 6)
    assert not surf.has_exact and surf.exact_ports is None
    stats = surf.stats()
    assert stats["table_entries"] == surf.table_entries > 0
    assert stats["build_seconds"] == surf.build_seconds >= 0.0
    # Lookups count as hits on the instance.
    before = surf.hits
    surf.optimal_k(10, 3)
    surf.steps_needed(10, 2)
    assert surf.hits == before + 2


def test_contains_and_grid_bounds():
    surf = AnalyticSurface.build(32, 4)
    assert surf.contains(2, 1) and surf.contains(32, 4)
    assert not surf.contains(1, 1) and not surf.contains(33, 1)
    assert not surf.contains(2, 5)
    grid = surf.optimal_k_grid([2, 10, 32], [1, 4])
    assert grid.shape == (3, 2)
    assert grid[1, 0] == optimal_k(10, 1)
    with pytest.raises(KeyError):
        surf.optimal_k_grid([2, 33], [1])
    with pytest.raises(KeyError):
        surf.optimal_k_grid([2], [5])
    with pytest.raises(ValidationError):
        surf.optimal_k_grid([], [1])


def test_latency_surface_shape_and_zero_rows():
    from repro.params import PAPER_MACHINE

    surf = AnalyticSurface.build(16, 4)
    grid = surf.latency_surface(PAPER_MACHINE)
    assert grid.shape == (17, 4)
    assert np.all(grid[:2, :] == 0.0)
    assert grid[16, 0] == surf.latency_us(16, 1, PAPER_MACHINE)


# -- persistence failure modes ----------------------------------------------


def test_save_embeds_manifest_and_loads_clean(tmp_path):
    surf = AnalyticSurface.build(24, 6)
    path = tmp_path / "surface.json"
    surf.save(path)
    doc = json.loads(path.read_text())
    assert doc["manifest"]["kind"] == "analytic_surface"
    assert doc["manifest"]["package"] == "repro"
    assert doc["version"] == 1
    loaded = AnalyticSurface.load(path)
    assert np.array_equal(loaded._optimal, surf._optimal)


def test_load_rejects_tampered_store(tmp_path):
    surf = AnalyticSurface.build(24, 6)
    path = tmp_path / "surface.json"
    surf.save(path)
    text = path.read_text()
    tampered = text.replace('"n_max": 24', '"n_max": 25', 1)
    assert tampered != text
    path.write_text(tampered)
    with pytest.raises(StoreCorruptionError):
        AnalyticSurface.load(path)


def test_load_rejects_wrong_version(tmp_path):
    from repro.durable.atomic import atomic_write_json

    surf = AnalyticSurface.build(8, 2)
    payload = surf.to_payload()
    payload["version"] = 99
    path = tmp_path / "surface.json"
    atomic_write_json(path, payload)
    with pytest.raises(StoreVersionError):
        AnalyticSurface.load(path)


def test_from_payload_rejects_missing_fields():
    surf = AnalyticSurface.build(8, 2)
    payload = surf.to_payload()
    del payload["steps"]
    with pytest.raises(ValidationError):
        AnalyticSurface.from_payload(payload)


# -- machine views ---------------------------------------------------------


def test_stale_surface_cannot_survive_machine_change():
    """Exact tables built for one ports value never serve another.

    A MachineParams change (here: NI port count) must never be answered
    from tables scheduled for the old machine: the surface refuses with
    KeyError.
    """
    surf = AnalyticSurface.build(32, 8, exact=True, ports=2)
    # Served for the machine it was built for...
    assert surf.optimal_k_exact(24, 4, ports=2) == optimal_k_exact(24, 4, ports=2)
    # ...refused for any other view.
    with pytest.raises(KeyError):
        surf.optimal_k_exact(24, 4, ports=1)
    # Same refusal when the surface has no exact tables at all.
    with pytest.raises(KeyError):
        AnalyticSurface.build(32, 8).optimal_k_exact(24, 4, ports=1)


def test_latency_params_taken_per_call():
    """Paper tables are machine-free: latency reflects the params given now."""
    from repro.params import MachineParams

    surf = AnalyticSurface.build(32, 8)
    slow = MachineParams(t_s=10.0, t_r=10.0, t_step=4.0)
    fast = MachineParams(t_s=1.0, t_r=1.0, t_step=0.5)
    steps = surf.optimal_steps(20, 4)
    assert surf.latency_us(20, 4, slow) == 10.0 + steps * 4.0 + 10.0
    assert surf.latency_us(20, 4, fast) == 1.0 + steps * 0.5 + 1.0
