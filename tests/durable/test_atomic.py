"""Atomic JSON artifacts: write/verify round trips and corruption typing."""

from __future__ import annotations

import json
import os

import pytest

from repro.durable import (
    StoreCorruptionError,
    StoreVersionError,
    atomic_write_json,
    atomic_write_text,
    crc32_of,
    quarantine,
    safe_load_json,
)


class TestAtomicWrite:
    def test_roundtrip_with_crc(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"version": 3, "records": {"a": [1, 2.5, None], "b": "x"}}
        atomic_write_json(path, doc)
        loaded = safe_load_json(path, expected_version=3, require_crc=True)
        assert loaded == doc  # CRC key stripped; logical document intact

    def test_write_replaces_not_appends(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"x": 1})
        atomic_write_json(path, {"x": 2})
        assert safe_load_json(path)["x"] == 2

    def test_no_temp_droppings_after_write(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"x": 1})
        atomic_write_text(tmp_path / "note.txt", "hello")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "note.txt"]

    def test_failed_serialization_leaves_target_intact(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"x": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"x": object()}, crc=False)
        assert safe_load_json(path)["x"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_crc_with_default_coercion_refused(self, tmp_path):
        with pytest.raises(ValueError, match="pure JSON"):
            atomic_write_json(tmp_path / "d.json", {"x": object()}, default=repr)

    def test_non_dict_document_refused(self, tmp_path):
        with pytest.raises(TypeError, match="JSON objects"):
            atomic_write_json(tmp_path / "d.json", [1, 2, 3])

    def test_crc_false_writes_no_crc_key(self, tmp_path):
        # Formats with external readers (Chrome traces keep exactly
        # Perfetto's keys) are written bare: no checksum stamp at all.
        path = tmp_path / "bare.json"
        atomic_write_json(path, {"x": 1}, crc=False)
        assert json.loads(path.read_text()) == {"x": 1}
        assert safe_load_json(path) == {"x": 1}
        with pytest.raises(StoreCorruptionError, match="no 'crc32' checksum"):
            safe_load_json(path, require_crc=True)


class TestSafeLoad:
    def test_truncated_file_is_typed_corruption(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"records": list(range(100))})
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(StoreCorruptionError, match="not valid JSON"):
            safe_load_json(path)

    def test_missing_file_is_typed_corruption(self, tmp_path):
        with pytest.raises(StoreCorruptionError, match="cannot read"):
            safe_load_json(tmp_path / "nope.json")

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"value": 12345})
        path.write_text(path.read_text().replace("12345", "12346"))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            safe_load_json(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(StoreCorruptionError, match="expected an object"):
            safe_load_json(path)

    def test_version_mismatch_is_typed(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"version": 2, "records": {}})
        with pytest.raises(StoreVersionError, match="schema version 2"):
            safe_load_json(path, expected_version=1)

    def test_unversioned_document_passes_version_check(self, tmp_path):
        # Artifacts written before the schema stamp stay loadable.
        path = tmp_path / "doc.json"
        atomic_write_json(path, {"records": {}})
        assert safe_load_json(path, expected_version=1) == {"records": {}}

    def test_missing_crc_tolerated_unless_required(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"x": 1}))
        assert safe_load_json(path) == {"x": 1}
        with pytest.raises(StoreCorruptionError, match="no 'crc32' checksum"):
            safe_load_json(path, require_crc=True)

    def test_crc_is_format_independent(self, tmp_path):
        # The checksum covers the canonical serialization: re-indenting
        # or re-ordering keys on disk must not invalidate it.
        doc = {"b": 2, "a": 1}
        doc["crc32"] = crc32_of(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc, indent=4, sort_keys=True))
        assert safe_load_json(path, require_crc=True) == {"a": 1, "b": 2}


def test_quarantine_moves_artifact_aside(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("garbage")
    moved = quarantine(path)
    assert moved == f"{path}.corrupt"
    assert not path.exists()
    assert os.path.exists(moved)
