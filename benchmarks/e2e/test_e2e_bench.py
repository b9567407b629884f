"""Self-test of the end-to-end benchmark (outside the tier-1 suite).

    python -m pytest benchmarks/e2e/test_e2e_bench.py -q

Takes about half a minute: one quick traced pass over all four
workloads, two in-process broadcast rounds, and the A/B decision rule
on synthetic samples.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import ab  # noqa: E402
import run  # noqa: E402


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_quick_run_reports_every_metric_of_the_spec(tmp_path):
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--traced", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    spec = run.load_spec()
    results = json.loads((tmp_path / "results.json").read_text())
    layers = json.loads((tmp_path / "layers.json").read_text())
    assert list(results) == [w["name"] for w in spec["workloads"]]
    every = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert _units(result["metrics"]) == every
        for metric in spec["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, (workload, metric)
        assert layers[workload]["spans"], workload
        trace = json.loads((tmp_path / f"{workload}-seed0.trace.json").read_text())
        assert trace["traceEvents"], workload


def test_perturbed_system_params_trip_the_digest(tmp_path, monkeypatch):
    import workloads
    from repro import PAPER_PARAMS
    from speed import Sampler

    digests = run.load_digests()
    honest = workloads.sim_round("sim_broadcast", 0, 0.0, False, str(tmp_path), Sampler())
    assert run.check("sim_broadcast", 0, [honest], digests)[1] == 0

    monkeypatch.setattr(workloads, "PARAMS", PAPER_PARAMS.with_(t_ns=PAPER_PARAMS.t_ns * 1.01))
    perturbed = workloads.sim_round("sim_broadcast", 0, 0.0, False, str(tmp_path), Sampler())
    assert perturbed["digest"] != honest["digest"]
    attempted, failed = run.check("sim_broadcast", 0, [perturbed], digests)
    assert failed == attempted > 0


def test_program_missing_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "plan_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""


def test_host_speed_scales_each_spell_by_its_own_samples():
    from speed import NOMINAL_KERNEL_MS, HostSpeed

    # A fast second, then a second at half speed, sampled every 50 ms.
    samples = [(t / 20, NOMINAL_KERNEL_MS * (1 if t < 20 else 2)) for t in range(40)]
    host = HostSpeed(samples, 1.0)
    assert host.scale(0.2, 0.7) == pytest.approx(0.5)
    assert host.scale(1.3, 1.8) == pytest.approx(0.25)
    assert host.scale(0.5, 1.5) == pytest.approx(1.0 * (10 + 11 * 0.5) / 21)  # 10 fast, 11 slow
    assert host.speed(5.0, 5.1) == 0.5  # past the samples: the nearest one
    assert host.slowdown() == pytest.approx(4 / 3)
    # Work that slows less than the kernel is scaled less.
    assert HostSpeed(samples, 0.5).scale(1.3, 1.8) == pytest.approx(0.5 * 0.5**0.5)
    assert HostSpeed(samples, 0.5).slowdown() == pytest.approx(4 / 3)


def test_ab_rule_flags_a_1_3x_layer_shift_but_not_noise():
    rng = random.Random(11)

    def draw():
        return [rng.gauss(1000.0, 15.0) for _ in range(10)]

    base = draw()
    assert ab.decide(base, [x * 1.3 for x in draw()], "lower", 0.1)["verdict"] == "regression"
    assert ab.decide(base, [x / 1.3 for x in draw()], "lower", 0.1)["verdict"] == "gain"
    assert ab.decide(base, [x / 1.3 for x in draw()], "higher", 0.1)["verdict"] == "regression"
    assert ab.decide(base, draw(), "lower", 0.1)["verdict"] == "unchanged"
    noisy = [rng.gauss(1000.0, 300.0) for _ in range(10)]
    assert ab.decide(noisy, draw(), "lower", 0.1)["verdict"] == "unresolved"
    # Ungated diagnostics have no bound: a shift is a gain or a loss.
    assert ab.decide(base, [x * 1.3 for x in draw()], "lower")["verdict"] == "loss"
    assert ab.decide(base, draw(), "lower")["verdict"] == "unchanged"
