"""Generic sweep utility and the parallel run_sweep engine."""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.analysis import run_sweep, sweep, sweep_table


def picklable_measure(n, m):
    """Module-level (hence picklable) measure for the parallel tests."""
    return (n * 1000 + m, float(n) / m)


def test_cross_product_order():
    points = sweep(lambda a, b: a * 10 + b, {"a": [1, 2], "b": [3, 4]})
    assert [(p["a"], p["b"], p.value) for p in points] == [
        (1, 3, 13),
        (1, 4, 14),
        (2, 3, 23),
        (2, 4, 24),
    ]


def test_single_grid():
    points = sweep(lambda x: x**2, {"x": [1, 2, 3]})
    assert [p.value for p in points] == [1, 4, 9]


def test_progress_callback_sees_every_point():
    seen = []
    sweep(lambda x: x, {"x": range(4)}, progress=lambda params: seen.append(params["x"]))
    assert seen == [0, 1, 2, 3]


def test_sweep_table_shape():
    points = sweep(lambda n, m: n + m, {"n": [1, 2], "m": [5]})
    headers, rows = sweep_table(points, value_name="steps")
    assert headers == ["n", "m", "steps"]
    assert rows == [[1, 5, 6], [2, 5, 7]]


def test_sweep_table_empty_rejected():
    with pytest.raises(ValueError):
        sweep_table([])


def test_sweep_with_real_measurement():
    from repro.core import optimal_k

    points = sweep(optimal_k, {"n": [16, 64], "m": [1, 8]})
    values = {(p["n"], p["m"]): p.value for p in points}
    assert values[(64, 1)] == 6 and values[(64, 8)] == 2


# ---------------------------------------------------------------------------
# run_sweep: the parallel engine
# ---------------------------------------------------------------------------

def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="no axes"):
        run_sweep(picklable_measure, {})
    with pytest.raises(ValueError, match="axis 'm'"):
        sweep(picklable_measure, {"n": [1, 2], "m": []})


def test_invalid_engine_arguments_rejected():
    with pytest.raises(ValueError):
        run_sweep(picklable_measure, {"n": [1], "m": [1]}, workers=0)
    with pytest.raises(ValueError):
        run_sweep(picklable_measure, {"n": [1], "m": [1]}, chunk_size=0)


def test_parallel_is_byte_identical_to_serial():
    """Determinism regression: guards the parallel merge path forever."""
    grids = {"n": list(range(1, 26)), "m": [1, 2, 3, 4]}  # 100 points
    serial = run_sweep(picklable_measure, grids, workers=1)
    parallel = run_sweep(picklable_measure, grids, workers=4, chunk_size=7)
    assert pickle.dumps(serial) == pickle.dumps(parallel)
    # Grid order (last axis fastest) is preserved by the parallel merge.
    assert [p.params for p in parallel][:5] == [
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 1, "m": 3},
        {"n": 1, "m": 4},
        {"n": 2, "m": 1},
    ]


def test_unpicklable_measure_falls_back_to_serial():
    offset = 10  # closure over a local -> unpicklable measure
    points = run_sweep(lambda x: x + offset, {"x": [1, 2, 3]}, workers=4)
    assert [p.value for p in points] == [11, 12, 13]


def test_parallel_progress_sees_every_point_in_grid_order():
    seen = []
    run_sweep(
        picklable_measure,
        {"n": [1, 2], "m": [3, 4]},
        workers=2,
        progress=lambda params: seen.append((params["n"], params["m"])),
    )
    assert seen == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_serial_sweep_records_a_span_per_point():
    from repro.obs import Tracer

    tracer = Tracer()
    run_sweep(picklable_measure, {"n": [1, 2], "m": [3]}, tracer=tracer)
    spans = [e for e in tracer.events if e.ph == "X"]
    assert len(spans) == 2
    assert all(e.cat == "sweep" and e.name == "point" for e in spans)
    assert spans[0].args == {"n": 1, "m": 3}


def test_parallel_sweep_records_a_span_per_chunk():
    from repro.obs import Tracer

    tracer = Tracer()
    run_sweep(
        picklable_measure, {"n": [1, 2, 3, 4], "m": [1, 2]}, workers=2, tracer=tracer
    )
    spans = [e for e in tracer.events if e.ph == "X"]
    assert spans and all(e.name.startswith("chunk") for e in spans)
    assert sum(e.args["points"] for e in spans) == 8


def test_traced_resume_records_one_checkpoint_instant(tmp_path):
    from repro.obs import Tracer

    checkpoint = tmp_path / "sweep.ckpt"
    grids = {"n": [1, 2], "m": [3]}  # 2 chunks of 1 point
    run_sweep(picklable_measure, grids, checkpoint=checkpoint)
    tracer = Tracer()
    run_sweep(picklable_measure, grids, tracer=tracer, checkpoint=checkpoint)
    instants = [e for e in tracer.events if e.ph == "i"]
    assert [(e.name, e.cat, e.args["chunks"]) for e in instants] == [
        ("checkpoint resume", "durable", 2)
    ]
    assert not [e for e in tracer.events if e.ph == "X"]  # nothing left to measure


# -- durability: checkpointed runs, dead workers ------------------------------

COUNT_FILE = None  # set per-test via _counting_measure's side-channel file


def _counting_measure(n, m):
    """Same name across calls so the checkpoint fingerprint matches."""
    with open(COUNT_FILE, "a") as fh:
        fh.write(f"{n},{m}\n")
    return picklable_measure(n, m)


def _calls() -> int:
    """Calls ``_counting_measure`` has logged so far."""
    with open(COUNT_FILE) as fh:
        return len(fh.readlines())


def test_checkpoint_resume_skips_journaled_chunks(tmp_path):
    global COUNT_FILE
    COUNT_FILE = str(tmp_path / "calls.log")
    checkpoint = tmp_path / "sweep.ckpt"
    grids = {"n": [1, 2], "m": [1, 2, 3]}

    full = run_sweep(_counting_measure, grids, chunk_size=2, checkpoint=checkpoint)
    first_calls = _calls()
    assert first_calls == 6

    # Simulate a crash after the first chunk: keep header + one chunk line.
    lines = checkpoint.read_text().splitlines(keepends=True)
    checkpoint.write_text("".join(lines[:2]))

    resumed = run_sweep(_counting_measure, grids, chunk_size=2, checkpoint=checkpoint)
    recomputed = _calls() - first_calls
    assert recomputed == 4  # only the two lost chunks re-ran
    # Journaled values round-trip through JSON (tuples become lists):
    # compare in that form.
    canonical = [json.dumps(p.value) for p in full]
    assert [json.dumps(p.value) for p in resumed] == canonical
    assert [p.params for p in resumed] == [p.params for p in full]


def test_completed_checkpoint_recomputes_nothing(tmp_path):
    global COUNT_FILE
    COUNT_FILE = str(tmp_path / "calls.log")
    checkpoint = tmp_path / "sweep.ckpt"
    grids = {"n": [1, 2], "m": [1, 2]}
    run_sweep(_counting_measure, grids, checkpoint=checkpoint)
    before = _calls()
    run_sweep(_counting_measure, grids, checkpoint=checkpoint)
    assert _calls() == before


def _exit_on_armed_point(n, m, marker):
    """Kills its worker on point (3, 4) while ``marker`` exists."""
    if (n, m) == (3, 4) and os.path.exists(marker):
        time.sleep(0.2)  # every earlier chunk is collected before the death
        os._exit(1)
    return n * 1000 + m


def test_dead_worker_fails_fast_and_the_rerun_resumes(tmp_path):
    from repro.durable import DURABLE_METRICS

    marker = tmp_path / "armed"
    marker.touch()
    measure = partial(_exit_on_armed_point, marker=str(marker))
    grids = {"n": [1, 2, 3], "m": [1, 2, 3, 4]}  # 6 chunks; (3, 4) is in the last
    checkpoint = tmp_path / "sweep.ckpt"

    def on_alarm(signum, frame):
        raise TimeoutError("a dead worker hung the sweep")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    before = DURABLE_METRICS.snapshot()
    try:
        with pytest.raises(BrokenProcessPool):
            run_sweep(measure, grids, workers=2, chunk_size=2, checkpoint=checkpoint)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    journaled = DURABLE_METRICS.snapshot()["chunks_journaled"] - before["chunks_journaled"]
    lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    assert [line["chunk"] for line in lines if line["kind"] == "chunk"] == [0, 1, 2, 3, 4]
    assert journaled == 5

    # Disarmed, the same measure (same fingerprint) resumes the 5 chunks
    # and measures the last one.
    marker.unlink()
    resumed = run_sweep(measure, grids, workers=2, chunk_size=2, checkpoint=checkpoint)
    after = DURABLE_METRICS.snapshot()
    assert after["chunks_resumed"] - before["chunks_resumed"] == 5
    assert after["chunks_journaled"] - before["chunks_journaled"] == 6
    serial = run_sweep(measure, grids)
    assert [(p.params, p.value) for p in resumed] == [(p.params, p.value) for p in serial]
