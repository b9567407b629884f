"""The write-ahead chunk journal behind ``run_sweep(checkpoint=...)``.

A checkpoint is a JSON-lines file: one header line naming the sweep it
belongs to, then one line per *completed* chunk carrying that chunk's
``(grid index, value)`` records.  Invariants:

* **Creation is atomic** — the header is written via
  :func:`~repro.durable.atomic.atomic_write_text` (temp + fsync +
  rename), so a journal either exists with a valid header or not at
  all.
* **Appends are checksummed and fsynced** — every line carries a
  CRC-32 of its canonical serialization and is flushed to stable
  storage before :meth:`ChunkJournal.append` returns; the chunk's
  results are on disk before the sweep moves on (write-ahead).
* **Torn tails self-heal** — a crash mid-append leaves a final line
  that is either incomplete JSON or missing its newline; loading
  detects it, drops it, and truncates the file, losing at most the one
  chunk that was being written.  A *complete* line whose checksum does
  not match, by contrast, is tampering or bit rot and raises
  :class:`~repro.durable.errors.StoreCorruptionError` — a torn write
  cannot produce a well-formed line with a wrong CRC.
* **Fingerprints bind journal to sweep** — the header records a hash
  of the grid, the measure, and the chunking; resuming with any of
  them changed raises
  :class:`~repro.durable.errors.CheckpointMismatchError` instead of
  merging stale results into a different run.

Replaying the journal and re-measuring produce *identical* results
(values round-trip through JSON exactly), which is what makes a
resumed sweep byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .atomic import atomic_write_text
from .errors import CheckpointMismatchError, StoreCorruptionError, StoreVersionError

__all__ = ["ChunkJournal", "sweep_fingerprint"]

#: Bump when the journal line format changes incompatibly.
JOURNAL_VERSION = 1


def _line_crc(record: dict) -> int:
    body = {k: v for k, v in record.items() if k != "crc32"}
    return zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())


def _encode_line(record: dict) -> str:
    record = dict(record)
    record["crc32"] = _line_crc(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _describe_measure(measure: Callable) -> str:
    """A process-independent name for ``measure`` (no object addresses).

    ``functools.partial`` unwraps to the inner function plus its bound
    arguments; bound values serialize canonically with ``repr`` as the
    fallback, which is deterministic for the dataclasses used as sweep
    configs.
    """
    if isinstance(measure, partial):
        inner = _describe_measure(measure.func)
        bound = json.dumps(
            {"args": list(measure.args), "keywords": measure.keywords},
            sort_keys=True,
            default=repr,
        )
        return f"partial({inner}, {bound})"
    module = getattr(measure, "__module__", "?")
    qualname = getattr(measure, "__qualname__", type(measure).__name__)
    return f"{module}.{qualname}"


def sweep_fingerprint(
    measure: Callable,
    combos: Sequence[Mapping[str, object]],
    chunk_size: int,
) -> str:
    """The identity hash binding a checkpoint to one specific sweep.

    Covers the measure, the full grid and the chunk size.  Any
    difference yields a different fingerprint and a refused resume.
    """
    doc = {
        "journal_version": JOURNAL_VERSION,
        "measure": _describe_measure(measure),
        "grid": [dict(c) for c in combos],
        # The chunks are cut from every grid index.  The list stays in
        # the hash so journals written by earlier versions still resume.
        "pending": list(range(len(combos))),
        "chunk_size": chunk_size,
    }
    canonical = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ChunkJournal:
    """Crash-safe record of completed sweep chunks at one path.

    Opening an existing journal validates the header against
    ``fingerprint`` and loads every intact chunk line into
    :attr:`completed`; opening a fresh path atomically writes the
    header.  :meth:`append` is the write-ahead step: it returns only
    after the chunk's records are fsynced.
    """

    def __init__(
        self, path: os.PathLike, fingerprint: str, *, fsync: bool = True
    ) -> None:
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        self.fsync = fsync
        #: chunk index -> list of (grid index, value), as recovered/written.
        self.completed: Dict[int, List[Tuple[int, object]]] = {}
        #: Chunks loaded from disk at open (the resume credit).
        self.resumed_chunks = 0
        #: Lazily-opened persistent append handle — reopening the file
        #: for every chunk would double the per-append cost.
        self._fh = None
        if os.path.exists(self.path):
            self._load()
        else:
            header = {
                "kind": "header",
                "journal_version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
            atomic_write_text(self.path, _encode_line(header), fsync=fsync)

    # -- recovery ------------------------------------------------------------
    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            raw = fh.read()
        records, keep_bytes = self._parse(raw)
        if not records:
            raise StoreCorruptionError(
                f"checkpoint {self.path!r} has no readable header; delete it "
                "to start fresh"
            )
        header = records[0]
        if header.get("kind") != "header":
            raise StoreCorruptionError(
                f"checkpoint {self.path!r} does not start with a header line; "
                "delete it to start fresh"
            )
        version = header.get("journal_version")
        if version != JOURNAL_VERSION:
            raise StoreVersionError(
                f"checkpoint {self.path!r} has journal version {version!r}, "
                f"this code reads {JOURNAL_VERSION}; delete it to start fresh"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint {self.path!r} belongs to a different sweep "
                "(grid, measure, or chunking changed since it was written); "
                "delete it to start fresh, or rerun the original sweep "
                "configuration to resume it"
            )
        for record in records[1:]:
            if record.get("kind") != "chunk":
                raise StoreCorruptionError(
                    f"checkpoint {self.path!r} contains an unknown record kind "
                    f"{record.get('kind')!r}; delete it to start fresh"
                )
            results = [(int(index), value) for index, value in record["results"]]
            self.completed[int(record["chunk"])] = results
        self.resumed_chunks = len(self.completed)
        if keep_bytes < len(raw.encode("utf-8")):
            # Torn tail from a crash mid-append: drop the partial line so
            # the next append starts on a clean boundary.
            with open(self.path, "r+b") as fh:
                fh.truncate(keep_bytes)
                if self.fsync:
                    os.fsync(fh.fileno())

    def _parse(self, raw: str) -> Tuple[List[dict], int]:
        """(intact records, byte length of the intact prefix) of ``raw``."""
        records: List[dict] = []
        keep = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # torn: append died before the newline landed
            stripped = line.strip()
            if not stripped:
                keep += len(line.encode("utf-8"))
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                break  # torn: a prefix of a record
            if not isinstance(record, dict):
                raise StoreCorruptionError(
                    f"checkpoint {self.path!r} contains a non-object line; "
                    "delete it to start fresh"
                )
            stored = record.get("crc32")
            if stored != _line_crc(record):
                raise StoreCorruptionError(
                    f"checkpoint {self.path!r} failed a line checksum "
                    f"(stored {stored!r}); the journal was modified after "
                    "writing — delete it to start fresh"
                )
            record.pop("crc32", None)
            records.append(record)
            keep += len(line.encode("utf-8"))
        return records, keep

    # -- write-ahead ---------------------------------------------------------
    def append(self, chunk_index: int, results: Sequence[Tuple[int, object]]) -> None:
        """Durably record one completed chunk before the sweep proceeds."""
        record = {
            "kind": "chunk",
            "chunk": int(chunk_index),
            "results": [[int(index), value] for index, value in results],
        }
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(_encode_line(record))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.completed[int(chunk_index)] = [
            (int(index), value) for index, value in results
        ]

    def close(self) -> None:
        """Release the append handle (safe to call repeatedly).

        Every appended line is already flushed and fsynced, so closing
        affects no durability guarantee — it only returns the file
        descriptor.
        """
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __del__(self):  # pragma: no cover - GC-timing dependent
        self.close()

    def __len__(self) -> int:
        return len(self.completed)

    def __contains__(self, chunk_index: int) -> bool:
        return chunk_index in self.completed
