"""End-to-end benchmark of the two hot paths: simulated multicasts and
answered plan requests.

One workload, as the command in ``BENCHMARK.json`` is run (the last line
of stdout is the JSON result)::

    python3 benchmarks/e2e/run.py --workload sim_broadcast --seed 0 --seconds 15 --trace 0

All four workloads, printing a table and writing ``results.json`` (and,
with ``--traced``, ``layers.json`` and one Perfetto trace per workload)::

    python3 benchmarks/e2e/run.py --seed 0 --out .bench_out [--traced] [--quick]

Every round runs in a fresh child process that imports the program from
``--src`` (default: ``src/`` of this checkout), so set-up is measured
from process start and caches never leak between rounds or workloads.
The processes that do the measured work sample the host's speed as
they go (``speed.py``), and every time the benchmark reports is scaled
to the reference host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from layers import quantile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]

#: Untraced rounds per run; per-round values are medians over rounds,
#: latency percentiles pool every round's samples.  A traced run adds
#: one traced round of the same length.
ROUNDS = 5
QUICK_ROUND_SECONDS = 1.0
#: Every run must end within this budget, whatever hangs.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_digests() -> dict:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_round(workload, seed, seconds, traced, src, out_dir, deadline) -> dict:
    """One round in a child process; adds ``spawned``, where set-up starts."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--round", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0", "--out", str(out_dir),
    ]
    spawned = time.monotonic()
    # Own process group, so a hung round dies with the SUT it started.
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} round timed out") from None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0:
        raise BenchmarkError(f"{workload} round exited with {child.returncode}")
    result = json.loads(stdout.decode().splitlines()[-1])
    result["spawned"] = spawned
    return result


def measure(workload, seed, seconds, rounds, traced, src, out_dir):
    """``(untraced rounds, traced round or None, host speed)``."""
    deadline = time.monotonic() + DEADLINE_S
    untraced = [
        run_round(workload, seed, seconds / rounds, False, src, out_dir, deadline)
        for _ in range(rounds)
    ]
    traced_round = None
    if traced:
        traced_round = run_round(workload, seed, seconds / rounds, True, src, out_dir, deadline)
    every = untraced + ([traced_round] if traced else [])
    samples = [s for r in every for s in r["speed"]]
    return untraced, traced_round, speed.HostSpeed(samples, speed.SENSITIVITY[workload])


def _cpu_us_per_op(cpu, host) -> float:
    """``cpu`` is ``[CPU seconds, operations, start, end]`` of one phase."""
    cpu_s, ops, start, end = cpu
    return cpu_s * host.scale(start, end) / (end - start) * 1e6 / max(ops, 1)


def _throughput(result, host) -> float:
    count, intervals = result["throughput"]
    return count / sum(host.scale(start, end) for start, end in intervals)


def end_to_end(rounds, host) -> dict:
    """The gated metrics, times scaled to the reference host speed."""
    return {
        "setup_s": statistics.median(host.scale(r["spawned"], r["ready_at"]) for r in rounds),
        "cpu_us_per_op": statistics.median(_cpu_us_per_op(r["cpu"], host) for r in rounds),
        "throughput_per_s": statistics.median(_throughput(r, host) for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def diagnostics(rounds, host) -> dict:
    """Ungated ``loadgen.*`` metrics, times scaled to the reference host
    speed; README.md gives the spread that keeps each out of the gate."""
    values = {
        "loadgen." + key: statistics.median(r["loadgen"][key] for r in rounds)
        for key in rounds[0]["loadgen"]
    }
    latencies = [host.scale(start, end) * 1e3 for r in rounds for start, end in r["ops"]]
    for q in (50, 90, 99):
        values[f"loadgen.op_p{q}_ms"] = quantile(latencies, q / 100)
    if "open_cpu" in rounds[0]:
        values["loadgen.open_cpu_us_per_op"] = statistics.median(
            _cpu_us_per_op(r["open_cpu"], host) for r in rounds
        )
    values["loadgen.host_slowdown"] = host.slowdown()
    return values


def per_layer(untraced, traced, host, names) -> dict:
    """Every per-layer metric; a layer off the workload's path reads 0."""
    values = dict.fromkeys(names, 0.0)
    values.update(traced["layers"])
    values.update(diagnostics(untraced, host))
    values["loadgen.trace_overhead"] = _cpu_us_per_op(traced["cpu"], host) / statistics.median(
        _cpu_us_per_op(r["cpu"], host) for r in untraced
    )
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise BenchmarkError(f"metrics not in BENCHMARK.json: {unknown}")
    return values


def check(workload, seed, rounds, digests) -> tuple:
    """``(attempted, failed)``; a digest that differs between rounds or
    from the recorded seed-0 value fails every operation of the run."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    seen = {r["digest"] for r in rounds}
    recorded = digests.get(workload) if seed == 0 else None
    if len(seen) > 1 or (recorded is not None and seen != {recorded}):
        print(f"{workload}: digest {sorted(seen)} != recorded {recorded}", file=sys.stderr)
        failed = attempted
    return attempted, failed


def run_workload(workload, seed, seconds, rounds, traced, spec, src, out_dir) -> dict:
    """Measure one workload and write its report; returns the report.

    ``metrics`` holds the end-to-end metrics, ``diagnostics`` the ungated
    ones and, when ``traced``, ``layers`` every per-layer metric.
    """
    untraced, traced_round, host = measure(workload, seed, seconds, rounds, traced, src, out_dir)
    every = untraced + ([traced_round] if traced else [])
    attempted, failed = check(workload, seed, every, load_digests())
    metrics = end_to_end(untraced, host)
    if set(metrics) != {m["name"] for m in spec["end_to_end"]}:
        raise BenchmarkError(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    report = {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "digest": untraced[0]["digest"],
        "metrics": metrics,
        "diagnostics": diagnostics(untraced, host),
        "rounds": every,
    }
    if traced:
        report["layers"] = per_layer(
            untraced, traced_round, host, [m["name"] for m in spec["per_layer"]]
        )
        report["spans"] = traced_round["spans"]
        report["profile_self_ms_per_run"] = traced_round.get("profile_self_ms_per_run")
    path = Path(out_dir) / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def _units(spec) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(workload, values, units) -> None:
    for name, value in values.items():
        print(f"{workload:>13s}  {name:36s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (BENCHMARK.json's form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"))
    parser.add_argument("--traced", action="store_true", help="all workloads: add a traced round")
    parser.add_argument("--quick", action="store_true", help="all workloads: one 1-second round")
    parser.add_argument("--src", default=str(ROOT / "src"), help="program under test")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.round:
        # The round and the system under test it starts share one CPU:
        # how the two wake each other across CPUs varies with the host's
        # load, and with it the server's CPU per request.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        sampler = speed.Sampler()
        sampler.start()  # set-up starts before the program is imported
        try:
            import workloads

            result = workloads.run_round(
                args.round, args.seed, args.seconds, bool(args.trace), args.out, sampler
            )
        finally:
            sampler.stop()
        print(json.dumps(result))
        return 0

    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {src}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = _units(spec)
    try:
        if args.workload:
            # BENCHMARK.json's form: the last stdout line is the result.
            traced = bool(args.trace)
            seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
            report = run_workload(
                args.workload, args.seed, seconds, ROUNDS, traced, spec, src, out_dir
            )
            values = report["layers"] if traced else report["metrics"]
            print_metrics(args.workload, {**report["diagnostics"], **values}, units)
            result = {key: report[key] for key in ("correct", "attempted", "failed")}
            result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
            print(json.dumps(result))
            return 0 if report["correct"] else 1

        rounds, seconds = (1, QUICK_ROUND_SECONDS) if args.quick else (ROUNDS, spec["run_seconds"])
        results, layer_results = {}, {}
        for workload in names:
            report = run_workload(
                workload, args.seed, seconds, rounds, args.traced, spec, src, out_dir
            )
            values = {**report["metrics"], **report["diagnostics"], **report.get("layers", {})}
            print_metrics(workload, values, units)
            results[workload] = {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "digest": report["digest"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
            if args.traced:
                layer_results[workload] = {
                    key: report[key] for key in ("spans", "profile_self_ms_per_run")
                }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (out_dir / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    if args.traced:
        (out_dir / "layers.json").write_text(json.dumps(layer_results, indent=1), encoding="utf-8")
    ok = all(result["correct"] for result in results.values())
    print(f"results in {out_dir}" + (": all outputs correct" if ok else ": OUTPUT CHECK FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
