"""Snapshot container: layout, zero-copy mmap semantics, and error handling."""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    SUPPORTED_VERSIONS,
    DeltaWriter,
    Snapshot,
    SnapshotChain,
    SnapshotWriter,
    atomic_output,
    decode_strings,
    encode_strings,
    string_table_arrays,
    strings_from_arrays,
)

#: A full save written while the index cache was persisted (see test_seed_snapshots.py).
SEED_BASE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "seed-base.snap")


@pytest.fixture
def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "vectors": rng.normal(size=(17, 5)).astype(np.float32),
        "offsets": np.arange(18, dtype=np.int64),
        "flags": rng.integers(0, 2, size=17).astype(bool),
        "empty": np.zeros((0, 4), dtype=np.float32),
    }


def _write(path, arrays, meta):
    writer = SnapshotWriter()
    for name, array in arrays.items():
        writer.add_array(name, array)
    writer.set_meta(meta)
    writer.save(path)


class TestRoundTrip:
    def test_file_roundtrip_bytes_exact(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        meta = {"hello": "wörld", "n": 17, "nested": {"values": [1, 2.5, None, True]}}
        _write(path, sample_arrays, meta)
        for mmap in (True, False):
            with Snapshot.open(path, mmap=mmap) as snap:
                assert snap.meta == meta
                assert snap.names() == list(sample_arrays)
                for name, array in sample_arrays.items():
                    loaded = snap.array(name)
                    assert loaded.dtype == array.dtype
                    assert loaded.shape == array.shape
                    assert loaded.tobytes() == array.tobytes()

    def test_mmap_arrays_are_readonly_views(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        snap = Snapshot.open(path, mmap=True)
        loaded = snap.array("vectors")
        assert not loaded.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            loaded[0, 0] = 1.0
        # Zero-copy: the array's memory is the mapping, not a heap copy.
        assert loaded.base is not None
        snap.close()

    def test_copy_mode_arrays_are_independent(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        snap = Snapshot.open(path, mmap=False)
        loaded = snap.array("vectors")
        loaded[0, 0] = 123.0  # writable, detached from the file
        again = Snapshot.open(path, mmap=False).array("vectors")
        assert again[0, 0] == sample_arrays["vectors"][0, 0]

    def test_segments_are_64_byte_aligned(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        data = path.read_bytes()
        _, _, manifest_offset, manifest_length = struct.unpack("<8sQQQ", data[:32])
        manifest = json.loads(data[manifest_offset : manifest_offset + manifest_length])
        for entry in manifest["arrays"].values():
            assert entry["offset"] % 64 == 0

    def test_every_name_gets_its_own_segment(self, tmp_path):
        """The writer emits no manifest alias, even for names sharing one buffer."""
        vectors = np.random.default_rng(1).normal(size=(16, 8)).astype(np.float32)
        writer = SnapshotWriter()
        writer.add_array("a", vectors)
        writer.add_array("b", vectors)
        writer.set_meta({})
        writer.save(tmp_path / "s.bin")
        with Snapshot.open(tmp_path / "s.bin") as snap:
            assert snap.alias_map() == {}
            assert snap.entry("a")["offset"] != snap.entry("b")["offset"]
            assert snap.total_bytes() == 2 * vectors.nbytes
            assert snap.array("b").tobytes() == vectors.tobytes()

    def test_strings_roundtrip(self, tmp_path):
        strings = ["", "plain", "ünïcode ✓", "with\nnewline", "nul\0byte"]
        writer = SnapshotWriter()
        for suffix, array in string_table_arrays(strings).items():
            writer.add_array("names" + suffix, array)
        writer.set_meta({})
        path = tmp_path / "s.bin"
        writer.save(path)
        with Snapshot.open(path) as snap:
            arrays = {name: snap.array(name) for name in ("names#utf8", "names#offsets")}
            assert strings_from_arrays(arrays, "names") == strings
        utf8, offsets = encode_strings(strings)
        assert decode_strings(utf8, offsets) == strings

    def test_save_is_atomic(self, tmp_path, sample_arrays, monkeypatch):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {"generation": 1})
        before = path.read_bytes()
        writer = SnapshotWriter()
        writer.add_array("x", np.zeros(4))
        writer.set_meta({"generation": 2})
        # Interrupt the write at the publish step: the fully-written temp file
        # never replaces the original, and no temp litter survives.
        def failing_replace(src, dst):
            raise OSError("interrupted")
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="interrupted"):
            writer.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]

    def test_atomic_output_unlinks_temp_when_body_raises(self, tmp_path):
        """A writer that dies mid-body must not strand its temp file."""
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_output(path) as handle:
                handle.write(b"partial")
                raise RuntimeError("mid-write failure")
        assert path.read_bytes() == b"previous contents"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestFormatVersions:
    def test_version1_files_remain_readable(self, tmp_path, sample_arrays):
        """v1 is exactly the chain-free subset of v2; old files keep loading."""
        path = tmp_path / "v1.bin"
        _write(path, sample_arrays, {"legacy": True})
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<Q", 1)
        path.write_bytes(bytes(data))
        with Snapshot.open(path) as snap:
            assert snap.format_version == 1
            assert snap.meta == {"legacy": True}
            assert snap.array("vectors").tobytes() == sample_arrays["vectors"].tobytes()
        with SnapshotChain.open(path) as chain:
            assert chain.depth == 0

    def test_current_version_and_support_window(self, tmp_path, sample_arrays):
        assert FORMAT_VERSION == 2
        assert FORMAT_VERSION in SUPPORTED_VERSIONS
        path = tmp_path / "v2.bin"
        _write(path, sample_arrays, {})
        with Snapshot.open(path) as snap:
            assert snap.format_version == FORMAT_VERSION


class TestDeltaWriterAndChain:
    def _write_base(self, path, array):
        writer = SnapshotWriter()
        writer.add_array("x", array)
        writer.set_meta({"step": 0})
        writer.save(path)
        return writer.payload_digest()

    def test_delta_writer_links_parent_in_manifest(self, tmp_path):
        base_path = tmp_path / "base.snap"
        payload = self._write_base(base_path, np.arange(8, dtype=np.int64))
        writer = DeltaWriter(base_path, payload, depth=1)
        writer.add_array("x#d/tail", np.arange(8, 10, dtype=np.int64))
        writer.set_delta({"arrays": {"x": {"op": "patch", "of": "x",
                                           "dtype": "<i8", "shape": [10], "base_rows": 8}}})
        writer.set_meta({"step": 1})
        delta_path = tmp_path / "base.snap.d1"
        writer.save(delta_path)
        with Snapshot.open(delta_path) as snap:
            assert snap.chain == {"parent": "base.snap", "parent_payload": payload, "depth": 1}
            assert snap.delta["arrays"]["x"]["op"] == "patch"
        with SnapshotChain.open(delta_path) as chain:
            assert chain.depth == 1
            chain.verify_links()
            assert chain.total_bytes() > 0

    def test_delta_writer_rejects_bad_depth(self, tmp_path):
        with pytest.raises(StoreError, match="depth"):
            DeltaWriter(tmp_path / "base.snap", "00", depth=0)

    def test_chain_rejects_missing_parent(self, tmp_path):
        writer = DeltaWriter(tmp_path / "gone.snap", "00", depth=1)
        writer.set_delta({"arrays": {}})
        path = tmp_path / "orphan.d1"
        writer.save(path)
        with pytest.raises(StoreError, match="missing parent"):
            SnapshotChain.open(path)

    def test_chain_rejects_delta_spec_without_chain_link(self, tmp_path):
        writer = SnapshotWriter()
        writer.add_array("x", np.zeros(3))
        writer.set_delta({"arrays": {}})
        path = tmp_path / "odd.snap"
        writer.save(path)
        with pytest.raises(StoreError, match="delta spec but no chain"):
            SnapshotChain.open(path)

    def test_chain_rejects_depth_mismatch(self, tmp_path):
        base_path = tmp_path / "base.snap"
        payload = self._write_base(base_path, np.arange(4, dtype=np.int64))
        writer = DeltaWriter(base_path, payload, depth=2)  # should be 1
        writer.set_delta({"arrays": {}})
        path = tmp_path / "base.snap.d1"
        writer.save(path)
        with pytest.raises(StoreError, match="records depth 2"):
            SnapshotChain.open(path)

    def test_broken_link_digest_detected(self, tmp_path):
        base_path = tmp_path / "base.snap"
        self._write_base(base_path, np.arange(4, dtype=np.int64))
        writer = DeltaWriter(base_path, "not-the-real-digest", depth=1)
        writer.set_delta({"arrays": {}})
        path = tmp_path / "base.snap.d1"
        writer.save(path)
        with SnapshotChain.open(path) as chain:
            with pytest.raises(StoreError, match="chain link broken"):
                chain.verify_links()

    def test_alias_map_and_entry_accessors(self):
        """Files written while the index cache was persisted carry manifest aliases."""
        with Snapshot.open(SEED_BASE) as snap:
            aliases = snap.alias_map()
            assert aliases
            for name, canonical in aliases.items():
                assert snap.entry(name)["alias_of"] == canonical
                assert snap.entry(name)["offset"] == snap.entry(canonical)["offset"]
                assert snap.array(name).tobytes() == snap.array(canonical).tobytes()
            assert snap.entry("table/vectors")["dtype"] == "<f4"
            with pytest.raises(StoreError, match="no array"):
                snap.entry("missing")


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTASNAP" + b"\0" * 64)
        with pytest.raises(StoreError, match="magic"):
            Snapshot.open(path)

    def test_unknown_version_rejected(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<Q", FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="version"):
            Snapshot.open(path)
        assert MAGIC == b"REPROSNP"

    def test_truncated_file_rejected(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(StoreError, match="past the buffer end"):
            Snapshot.open(path)

    def test_a_mapping_that_fails_to_parse_is_closed(self, tmp_path, sample_arrays, monkeypatch):
        import mmap as real_mmap
        import types

        from repro.store import format as format_module

        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        path.write_bytes(b"NOTASNAP" + path.read_bytes()[8:])
        opened = []

        def recording_mmap(*args, **kwargs):
            opened.append(real_mmap.mmap(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(
            format_module,
            "mmap_module",
            types.SimpleNamespace(mmap=recording_mmap, ACCESS_READ=real_mmap.ACCESS_READ),
        )
        with pytest.raises(StoreError, match="bad magic"):
            Snapshot.open(path, mmap=True)
        assert len(opened) == 1 and opened[0].closed

    def test_duplicate_and_object_arrays_rejected(self):
        writer = SnapshotWriter()
        writer.add_array("a", np.zeros(3))
        with pytest.raises(StoreError, match="duplicate"):
            writer.add_array("a", np.zeros(3))
        with pytest.raises(StoreError, match="object dtype"):
            writer.add_array("objs", np.array([object()]))

    def test_missing_array_name(self, tmp_path, sample_arrays):
        path = tmp_path / "snap.bin"
        _write(path, sample_arrays, {})
        with Snapshot.open(path) as snap:
            with pytest.raises(StoreError, match="no array"):
                snap.array("nope")
