"""Chunk journal: write-ahead semantics, torn tails, tamper detection."""

from __future__ import annotations

import json

import pytest

from repro.durable import (
    CheckpointMismatchError,
    ChunkJournal,
    StoreCorruptionError,
    StoreVersionError,
    sweep_fingerprint,
)


def measure_a(x):
    return x * 2


def measure_b(x):
    return x * 3


COMBOS = [{"x": 1}, {"x": 2}, {"x": 3}, {"x": 4}]
FP = sweep_fingerprint(measure_a, COMBOS, 2)


class TestFingerprint:
    def test_deterministic(self):
        assert FP == sweep_fingerprint(measure_a, COMBOS, 2)

    def test_sensitive_to_every_input(self):
        base = FP
        assert sweep_fingerprint(measure_b, COMBOS, 2) != base
        assert sweep_fingerprint(measure_a, COMBOS[:3], 2) != base
        assert sweep_fingerprint(measure_a, COMBOS, 3) != base

    def test_partial_binding_is_part_of_identity(self):
        from functools import partial

        one = sweep_fingerprint(partial(measure_a), COMBOS, 1)
        two = sweep_fingerprint(partial(measure_b), COMBOS, 1)
        assert one != two


class TestJournalRoundTrip:
    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "ck.journal"
        journal = ChunkJournal(path, FP)
        journal.append(0, [(0, 2), (1, 4)])
        journal.append(1, [(2, 6), (3, 8)])
        assert sorted(journal.completed) == [0, 1]

        reopened = ChunkJournal(path, FP)
        assert reopened.resumed_chunks == 2
        assert reopened.completed == {0: [(0, 2), (1, 4)], 1: [(2, 6), (3, 8)]}
        assert 0 in reopened and 1 in reopened and 2 not in reopened

    def test_values_roundtrip_like_json(self, tmp_path):
        # Floats, nulls, nested structures: exactly JSON semantics — the
        # byte-identity guarantee rests on it.
        path = tmp_path / "ck.journal"
        value = {"latency": 216.39999999999998, "curve": [1, None, [2.5]]}
        ChunkJournal(path, FP).append(0, [(0, value)])
        recovered = ChunkJournal(path, FP).completed[0][0][1]
        assert recovered == json.loads(json.dumps(value))
        assert recovered["latency"] == 216.39999999999998  # exact float

    def test_fresh_journal_writes_header_atomically(self, tmp_path):
        path = tmp_path / "ck.journal"
        ChunkJournal(path, FP)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["kind"] == "header" and header["fingerprint"] == FP


class TestCrashRecovery:
    def test_torn_tail_self_heals(self, tmp_path):
        path = tmp_path / "ck.journal"
        journal = ChunkJournal(path, FP)
        journal.append(0, [(0, 2), (1, 4)])
        intact = path.read_bytes()
        # A crash mid-append leaves a prefix of the next line.
        path.write_bytes(intact + b'{"chunk": 1, "kind": "chu')

        recovered = ChunkJournal(path, FP)
        assert recovered.completed == {0: [(0, 2), (1, 4)]}
        assert path.read_bytes() == intact  # tail truncated away
        # Appends continue on the clean boundary.
        recovered.append(1, [(2, 6)])
        assert ChunkJournal(path, FP).completed[1] == [(2, 6)]

    def test_torn_line_missing_newline_dropped(self, tmp_path):
        path = tmp_path / "ck.journal"
        journal = ChunkJournal(path, FP)
        journal.append(0, [(0, 2)])
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # the newline itself never landed
        assert ChunkJournal(path, FP).completed == {}

    def test_tampered_line_raises_not_heals(self, tmp_path):
        # A *complete* line with a bad CRC cannot be a torn write — it
        # is tampering or bit rot, and must refuse, not self-heal.
        path = tmp_path / "ck.journal"
        ChunkJournal(path, FP).append(0, [(0, 111)])
        path.write_text(path.read_text().replace("111", "999"))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            ChunkJournal(path, FP)

    def test_wrong_fingerprint_refused(self, tmp_path):
        path = tmp_path / "ck.journal"
        ChunkJournal(path, FP).append(0, [(0, 2)])
        other = sweep_fingerprint(measure_a, COMBOS, 1)
        with pytest.raises(CheckpointMismatchError, match="different sweep"):
            ChunkJournal(path, other)

    def test_wrong_journal_version_refused(self, tmp_path):
        from repro.durable.journal import _encode_line

        path = tmp_path / "ck.journal"
        path.write_text(
            _encode_line({"kind": "header", "journal_version": 99, "fingerprint": FP})
        )
        with pytest.raises(StoreVersionError, match="journal version 99"):
            ChunkJournal(path, FP)

    def test_headerless_file_refused(self, tmp_path):
        path = tmp_path / "ck.journal"
        path.write_text("")
        with pytest.raises(StoreCorruptionError, match="no readable header"):
            ChunkJournal(path, FP)
