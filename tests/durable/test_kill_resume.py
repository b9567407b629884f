"""The cardinal invariant: SIGKILL a sweep, resume it, get identical bytes.

A child process runs a checkpointed sweep with a deliberately slow
measure and prints the points it returns as canonical JSON; the parent
SIGKILLs the child's process group (its pool workers included) once
the journal shows progress, reruns the identical command to
completion, and compares the printed points byte-for-byte against an
uninterrupted control run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

#: The sweep the child runs: 12 points in 6 chunks, ~60 ms per point,
#: so the parent has a wide window to kill inside.  A script file, not
#: ``-c``, so pool workers can import ``slow_measure`` under any start
#: method.
CHILD_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import time

    from repro.analysis.sweep import run_sweep

    def slow_measure(n, m):
        time.sleep(0.06)
        return {"v": n * 1000 + m, "f": n / m}

    if __name__ == "__main__":
        checkpoint, workers = sys.argv[1], int(sys.argv[2])
        points = run_sweep(
            slow_measure,
            {"n": [1, 2, 3], "m": [1, 2, 3, 4]},
            workers=workers,
            chunk_size=2,
            checkpoint=checkpoint,
        )
        print(json.dumps([[p.params, p.value] for p in points], sort_keys=True))
    """
)


def _launch(tmp_path, workers):
    script = tmp_path / "sweep_child.py"
    script.write_text(CHILD_SCRIPT)
    return subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "sweep.ckpt"), str(workers)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, pool workers included
    )


def _kill_group(proc) -> None:
    """SIGKILL ``proc``'s process group and reap ``proc``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group already exited
        pass
    proc.communicate(timeout=10)


def _journal_chunk_lines(path) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if '"kind": "chunk"' in line or '"kind":"chunk"' in line)


@pytest.mark.parametrize("workers", [1, 2])
def test_sigkill_then_resume_is_byte_identical(tmp_path, workers):
    checkpoint = tmp_path / "sweep.ckpt"

    # Round 1: kill mid-flight, after >= 2 chunks have been journaled
    # but well before all 6 are.
    victim = _launch(tmp_path, workers)
    try:
        deadline = time.monotonic() + 30.0
        while _journal_chunk_lines(checkpoint) < 2:
            assert victim.poll() is None, "sweep finished before we could kill it"
            assert time.monotonic() < deadline, "journal never showed progress"
            time.sleep(0.01)
    finally:
        _kill_group(victim)
    assert victim.returncode == -signal.SIGKILL

    killed_at = _journal_chunk_lines(checkpoint)
    assert 2 <= killed_at < 6

    # Round 2: identical command, same checkpoint — runs to completion.
    resumed = _launch(tmp_path, workers)
    try:
        out, err = resumed.communicate(timeout=60)
    finally:
        if resumed.poll() is None:
            _kill_group(resumed)
    assert resumed.returncode == 0, err
    # The resumed run journaled only the missing chunks.
    assert _journal_chunk_lines(checkpoint) == 6

    # Control: the same sweep, uninterrupted, in-process, no checkpoint
    # — the values are pure functions of the grid, so the printed points
    # must agree byte-for-byte.
    from repro.analysis.sweep import run_sweep

    control = run_sweep(_control_measure, {"n": [1, 2, 3], "m": [1, 2, 3, 4]})
    expected = json.dumps([[p.params, p.value] for p in control], sort_keys=True)
    assert out.strip() == expected
    assert len(json.loads(out)) == 12


def test_resume_with_changed_grid_is_refused(tmp_path):
    from repro.analysis.sweep import run_sweep
    from repro.durable import CheckpointMismatchError

    checkpoint = tmp_path / "sweep.ckpt"
    run_sweep(_module_measure, {"x": [1, 2]}, checkpoint=checkpoint)
    with pytest.raises(CheckpointMismatchError):
        run_sweep(_module_measure, {"x": [1, 2, 3]}, checkpoint=checkpoint)


def _module_measure(x):
    return x + 1


def _control_measure(n, m):
    return {"v": n * 1000 + m, "f": n / m}
