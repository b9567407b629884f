"""Paired A/B runs of the program at a base revision against this checkout.

    python3 benchmarks/e2e/ab.py --base REV

This checkout's benchmark code drives both sides; only the program
under test differs (``run.py --src``).  The base side's ``src/`` is
exported with ``git archive`` into ``.bench_ab/<commit>/``, which leaves
the repository's worktree list and index alone.  Every workload of
``BENCHMARK.json`` runs :data:`PAIRS` pairs of ``run_seconds`` runs;
pair ``i`` runs both sides on seed ``i``, alternating which side goes
first.

Per (workload, metric) row the report gives each side's median and
quartiles and one verdict:

* ``gain`` — the head wins at least 9 of 10 pairs and the medians
  differ by more than the base runs' interquartile range;
* ``unresolved`` — the base runs spread wider than the metric's bound,
  so "no regression" cannot be shown (unless every head run beats every
  base run);
* ``regression`` — the head median is worse than the base median by
  more than the metric's bound;
* ``loss`` — for an ungated ``loadgen.*`` diagnostic, which has no
  bound: the mirror image of ``gain``;
* ``unchanged`` — none of the above.

Both sides must produce the same simulation digest for every seed,
including seeds that have no recorded digest.  Exit status 1 on any
regression, digest mismatch or failed run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = ROOT / ".bench_ab"
#: Pairs per workload: the fewest the gain rule (9 of 10 wins) allows.
PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def decide(base, head, better: str, bound=None) -> dict:
    """The paired decision rule (see the module docstring) for one row;
    ``bound=None`` marks an ungated diagnostic."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    needed = math.ceil(0.9 * len(base))
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    separated = abs(h_med - b_med) > b3 - b1
    every_run_better = all(sign * (h - b) > 0 for h in head for b in base)
    worse_by = -sign * (h_med - b_med) / b_med
    if wins >= needed and separated and worse_by < 0:
        verdict = "gain"
    elif bound is None:
        verdict = "loss" if losses >= needed and separated and worse_by > 0 else "unchanged"
    elif (b3 - b1) / b_med > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "base": {"q1": b1, "median": b_med, "q3": b3},
        "head": {"q1": h1, "median": h_med, "q3": h3},
        "wins": wins,
        "pairs": len(base),
        "change": (h_med - b_med) / b_med,
    }


def export_base(rev: str) -> Path:
    """``src/`` of ``rev`` under ``.bench_ab/<commit>/`` (reused if present)."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    target = WORK_DIR / commit[:12]
    src = target / "src"
    if not (src / "repro" / "__init__.py").is_file():
        archive = subprocess.Popen(
            ["git", "-C", str(ROOT), "archive", commit, "src"], stdout=subprocess.PIPE
        )
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(target, filter="data")
            else:  # Python before the extraction filters (3.10.11 and older)
                tar.extractall(target)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {commit} failed")
    return src


def run_side(side: str, src: Path, workload: str, seed: int, seconds: float):
    """``(metrics, digest)`` of one run, or ``None`` if it failed."""
    out = WORK_DIR / "runs" / side
    child = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
            "--src", str(src), "--out", str(out),
        ],
        capture_output=True, text=True,
    )
    if child.returncode != 0:
        print(f"  {side} {workload} seed {seed} failed:\n{child.stderr[-2000:]}", file=sys.stderr)
        return None
    report = json.loads((out / f"{workload}-seed{seed}-trace0.json").read_text())
    return {**report["diagnostics"], **report["metrics"]}, report["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"])
    sides = {"base": export_base(args.base), "head": ROOT / "src"}

    rows, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        samples = {"base": [], "head": []}
        for seed in range(PAIRS):
            order = ("base", "head") if seed % 2 == 0 else ("head", "base")
            runs = {side: run_side(side, sides[side], workload, seed, seconds) for side in order}
            if None in runs.values():
                ok = False
                continue
            if runs["base"][1] != runs["head"][1]:
                print(f"  {workload} seed {seed}: digests differ "
                      f"(base {runs['base'][1]}, head {runs['head'][1]})", file=sys.stderr)
                ok = False
            for side in sides:
                samples[side].append(runs[side][0])
            print(f"{workload} pair {seed + 1}/{PAIRS} done", file=sys.stderr)
        if not samples["base"]:
            continue
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            if name not in samples["base"][0]:
                continue  # per-layer metrics come from traced runs only
            row = decide(
                [s[name] for s in samples["base"]],
                [s[name] for s in samples["head"]],
                metric["better"],
                metric.get("bound"),
            )
            rows.append({"workload": workload, "metric": name, **row})

    def spread(side):
        return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"

    print(f"{'workload':13s} {'metric':24s} {'base median [q1, q3]':32s} "
          f"{'head median [q1, q3]':32s} {'change':>8s}  wins   verdict")
    for row in rows:
        print(
            f"{row['workload']:13s} {row['metric']:24s} {spread(row['base']):32s} "
            f"{spread(row['head']):32s} {row['change']:+8.2%}  "
            f"{row['wins']:>2d}/{row['pairs']:<3d} {row['verdict']}"
        )
    WORK_DIR.mkdir(exist_ok=True)
    (WORK_DIR / "ab.json").write_text(json.dumps({"base": args.base, "rows": rows}, indent=1))
    regressed = any(row["verdict"] == "regression" for row in rows)
    return 1 if regressed or not ok else 0


if __name__ == "__main__":
    sys.exit(main())
