"""Durable execution: crash-safe checkpoints, corruption-proof artifacts.

The simulation and service layers assume a well-behaved host; this
package drops that assumption.  It makes the pipeline that produces
the paper's artifacts *restartable* (a SIGKILL mid-sweep costs one
chunk, not hours of ProcessPool work) and *self-verifying* (a torn or
tampered JSON artifact raises a typed error at load, never a silent
wrong figure):

* :mod:`~repro.durable.atomic` — ``atomic_write_json`` (temp + fsync +
  rename, CRC-stamped) and ``safe_load_json`` (checksum + schema
  version verification) behind every JSON artifact the repo writes.
* :mod:`~repro.durable.journal` — the write-ahead chunk journal behind
  ``run_sweep(checkpoint=...)``: fsynced, checksummed appends; torn
  tails self-heal; fingerprints refuse resumes against changed sweeps.
* :mod:`~repro.durable.errors` — the typed failure vocabulary,
  including :class:`ValidationError` for refusing bad arguments before
  any work is scheduled.
* :mod:`~repro.durable.metrics` — checkpoint/recovery counters, merged
  into :data:`repro.obs.GLOBAL_METRICS` as the ``"durable"`` provider.

The cardinal invariant, pinned by ``tests/durable/test_kill_resume.py``
and ``benchmarks/bench_durable_overhead.py``: a sweep killed and
resumed from its checkpoint returns points *byte-identical* to an
uninterrupted run's, and a sweep with no checkpoint writes nothing to
disk.
"""

from .atomic import (
    atomic_write_json,
    atomic_write_text,
    crc32_of,
    safe_load_json,
)
from .errors import (
    CheckpointMismatchError,
    DurabilityError,
    StoreCorruptionError,
    StoreVersionError,
    ValidationError,
    check_positive_int,
    check_positive_number,
)
from .journal import ChunkJournal, sweep_fingerprint
from .metrics import DURABLE_METRICS, DurableMetrics

__all__ = [
    "DURABLE_METRICS",
    "DurableMetrics",
    "CheckpointMismatchError",
    "ChunkJournal",
    "DurabilityError",
    "StoreCorruptionError",
    "StoreVersionError",
    "ValidationError",
    "atomic_write_json",
    "atomic_write_text",
    "check_positive_int",
    "check_positive_number",
    "crc32_of",
    "safe_load_json",
    "sweep_fingerprint",
]
