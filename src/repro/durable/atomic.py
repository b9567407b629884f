"""Corruption-proof JSON artifacts: atomic writes, verified loads.

Every JSON artifact this repository emits (campaign records, analytic
surfaces, Chrome traces, ``BENCH_*.json``) funnels through two
functions:

* :func:`atomic_write_json` — serialize to a same-directory temp file,
  ``fsync``, then ``os.replace`` onto the target.  A reader can
  observe the *old* file or the *new* file, never a half-written one,
  and a crash mid-write leaves the previous artifact intact.  By
  default the document is stamped with a CRC-32 of its canonical
  serialization, so later bit rot is detectable, not just torn writes.
* :func:`safe_load_json` — parse, verify the embedded CRC when present,
  and check the schema ``version``, raising
  :class:`~repro.durable.errors.StoreCorruptionError` /
  :class:`~repro.durable.errors.StoreVersionError` with actionable
  messages instead of propagating a raw ``json.JSONDecodeError``.

The CRC convention: the checksum lives under the reserved top-level
key ``"crc32"`` and covers ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` of the document *without* that key.  JSON
scalars round-trip exactly through Python's parser (including floats),
so verification re-serializes canonically and compares — the on-disk
formatting (indentation, key order) is free to differ.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Optional, Union

from .errors import StoreCorruptionError, StoreVersionError

__all__ = [
    "CRC_KEY",
    "atomic_write_json",
    "atomic_write_text",
    "crc32_of",
    "safe_load_json",
]

#: Reserved top-level key carrying the document checksum.
CRC_KEY = "crc32"

PathLike = Union[str, os.PathLike]


def crc32_of(doc: dict) -> int:
    """CRC-32 of ``doc``'s canonical JSON serialization (sans checksum)."""
    body = {k: v for k, v in doc.items() if k != CRC_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of ``path``'s directory (rename durability)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on a FAT mount
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str, *, fsync: bool = True) -> str:
    """Write ``text`` to ``path`` via temp file + fsync + ``os.replace``.

    The temp file lives in the target's directory (``os.replace`` must
    not cross filesystems) and is named after the writer's PID so
    concurrent writers cannot collide; returns the path written.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(path)
    return path


def atomic_write_json(
    path: PathLike,
    doc: dict,
    *,
    crc: bool = True,
    fsync: bool = True,
    sort_keys: bool = False,
    default=None,
) -> str:
    """Atomically write ``doc`` as JSON, checksummed by default.

    ``crc=False`` skips the checksum stamp for formats with external
    schema constraints (e.g. Chrome traces keep exactly the keys
    Perfetto expects) — the write is still atomic.  ``default`` is
    passed to ``json.dumps`` for not-quite-JSON values; documents using
    it cannot carry a CRC (the coerced values would not round-trip).
    """
    if not isinstance(doc, dict):
        raise TypeError(f"atomic_write_json writes JSON objects, got {type(doc).__name__}")
    if crc:
        if default is not None:
            raise ValueError("crc=True requires pure JSON values (no default= coercion)")
        doc = dict(doc)
        doc[CRC_KEY] = crc32_of(doc)
    text = json.dumps(doc, sort_keys=sort_keys, default=default)
    return atomic_write_text(path, text, fsync=fsync)


def safe_load_json(
    path: PathLike,
    *,
    expected_version: Optional[int] = None,
    require_crc: bool = False,
) -> dict:
    """Load and verify a JSON artifact written by :func:`atomic_write_json`.

    Raises
    ------
    StoreCorruptionError
        Unparseable JSON, a non-object document, a checksum mismatch,
        or (with ``require_crc=True``) a missing checksum.
    StoreVersionError
        ``expected_version`` given and the document's ``version``
        differs.  Documents with *no* ``version`` key pass — artifacts
        written before the schema stamp stay loadable.

    The returned dict has the :data:`CRC_KEY` removed; callers see the
    logical document only.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StoreCorruptionError(f"cannot read {path!r}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(
            f"{path!r} is not valid JSON ({exc}); the file is truncated or "
            "corrupt — delete it or move it aside to start fresh"
        ) from exc
    if not isinstance(doc, dict):
        raise StoreCorruptionError(
            f"{path!r} holds a JSON {type(doc).__name__}, expected an object; "
            "delete it or move it aside to start fresh"
        )
    stored_crc = doc.pop(CRC_KEY, None)
    if stored_crc is None:
        if require_crc:
            raise StoreCorruptionError(
                f"{path!r} carries no {CRC_KEY!r} checksum but one is required; "
                "rewrite it with atomic_write_json or delete it"
            )
    else:
        actual = crc32_of(doc)
        if stored_crc != actual:
            raise StoreCorruptionError(
                f"{path!r} failed its checksum (stored {stored_crc}, computed "
                f"{actual}); the file was modified or corrupted after writing — "
                "delete it or move it aside to start fresh"
            )
    if expected_version is not None:
        version = doc.get("version")
        if version is not None and version != expected_version:
            raise StoreVersionError(
                f"{path!r} has schema version {version!r}, this code reads "
                f"{expected_version}; regenerate the artifact or load it with "
                "matching code"
            )
    return doc
