"""In-place digests equal the historical ``tobytes()`` recipes, and copy nothing.

Every digest the store records hashes a flat ``uint8`` view of the array
instead of ``array.tobytes()``.
The recipes below are the historical bodies, kept only as the reference the
in-place digests must equal byte for byte on every dtype and layout a
snapshot can hold.
"""

from __future__ import annotations

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.store import Snapshot, SnapshotWriter
from repro.core.representation import EmbeddingStore
from repro.store.codecs import arrays_digest, embedding_store_digest
from repro.store.format import PAYLOAD_SCHEME, segment_digest


def _historical_arrays_digest(arrays, *labels):
    digest = hashlib.blake2b(digest_size=16)
    for label in labels:
        digest.update(label.encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _historical_segment(digest, name, dtype_str, shape, array):
    digest.update(name.encode())
    digest.update(str(dtype_str).encode())
    digest.update(str(tuple(shape)).encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def _historical_segment_digest(name, dtype_str, shape, array):
    digest = hashlib.blake2b(digest_size=16)
    _historical_segment(digest, name, dtype_str, shape, array)
    return digest.hexdigest()


def _inputs() -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(3)
    floats = rng.normal(size=(7, 5)).astype(np.float32)
    floats[0, 0], floats[1, 1], floats[2, 2] = np.nan, -0.0, 0.0
    wide = rng.normal(size=(9, 8)).astype(np.float32)
    return {
        "float32-nan-negzero": floats,
        "int32": np.arange(-6, 6, dtype=np.int32).reshape(3, 4),
        "int64": np.arange(10, dtype=np.int64) * -7,
        "uint8": np.frombuffer(b"\x00\xffsnapshot", dtype=np.uint8),
        "bool": np.array([True, False, True, True]),
        "empty-rows": np.zeros((0, 6), dtype=np.float32),
        "zero-d": np.array(2.5, dtype=np.float64),
        "non-contiguous": wide[1::2, ::3],
    }


@pytest.fixture(scope="module")
def mapped(tmp_path_factory):
    """The inputs as read-only views over a memory-mapped snapshot, plus the writer."""
    path = tmp_path_factory.mktemp("digests") / "inputs.snap"
    writer = SnapshotWriter()
    for name, array in _inputs().items():
        writer.add_array(name, array)
    writer.save(path)
    snapshot = Snapshot.open(path, mmap=True)
    yield writer, snapshot
    snapshot.close()


def _cases(mapped):
    _, snapshot = mapped
    cases = dict(_inputs())
    for name in snapshot.names():
        view = snapshot.array(name)
        assert not view.flags.writeable
        cases[f"mmap-{name}"] = view
    return cases


def test_arrays_digest_equals_the_tobytes_recipe(mapped):
    cases = _cases(mapped)
    for name, array in cases.items():
        assert arrays_digest({name: array}, "label") == _historical_arrays_digest(
            {name: array}, "label"
        ), name
    assert arrays_digest(cases, "a", "b") == _historical_arrays_digest(cases, "a", "b")


def test_segment_digest_equals_the_tobytes_recipe(mapped):
    for name, array in _cases(mapped).items():
        args = (name, array.dtype.str, array.shape, array)
        assert segment_digest(*args) == _historical_segment_digest(*args), name


def test_writer_and_reader_payload_digests_equal_the_tobytes_recipe(mapped, tmp_path):
    """The legacy stream equals the historical recipe; the new digest hashes the manifest."""
    writer, snapshot = mapped
    historical = hashlib.blake2b(digest_size=16)
    for name in snapshot.names():
        entry = snapshot.entry(name)
        _historical_segment(
            historical, name, entry["dtype"], tuple(entry["shape"]), snapshot.array(name)
        )
    # No payload_scheme marker in the meta: the file reads the legacy stream.
    assert snapshot.payload_digest() == snapshot.legacy_payload_digest() == historical.hexdigest()
    assert all(ok for _, ok, _ in snapshot.verify_segments())
    marked = SnapshotWriter()
    for name, array in _inputs().items():
        marked.add_array(name, array)
    marked.set_meta({"digests": {"payload": None, "payload_scheme": PAYLOAD_SCHEME}})
    payload = marked.payload_digest()
    marked.set_meta({"digests": {"payload": payload, "payload_scheme": PAYLOAD_SCHEME}})
    marked.save(tmp_path / "marked.snap")
    data = (tmp_path / "marked.snap").read_bytes()
    _, _, offset, length = struct.unpack("<8sQQQ", data[:32])
    manifest = json.loads(data[offset : offset + length])
    del manifest["meta"]["digests"]["payload"]
    expected = hashlib.blake2b(json.dumps(manifest, sort_keys=True).encode(), digest_size=16)
    assert payload == expected.hexdigest()
    with Snapshot.open(tmp_path / "marked.snap") as reread:
        assert reread.payload_digest() == payload
        assert reread.legacy_payload_digest() == historical.hexdigest()


def test_a_writer_without_the_payload_scheme_refuses_a_payload_digest(mapped):
    """A writer returns only the digest its file re-derives: the manifest payload
    needs the marker, and the legacy stream is a read path only."""
    writer, _ = mapped
    with pytest.raises(StoreError, match="payload_scheme"):
        writer.payload_digest()


@pytest.mark.parametrize(
    "digest",
    [
        lambda array: arrays_digest({"x": array}),
        lambda array: segment_digest("x", array.dtype.str, array.shape, array),
        lambda array: embedding_store_digest(EmbeddingStore.from_blocks({"x": array})),
    ],
    ids=["arrays_digest", "segment_digest", "store_block_digest"],
)
def test_hashing_a_16_mb_array_copies_nothing(digest):
    array = np.ones((4096, 1024), dtype=np.float32)  # 16 MiB
    digest(array)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        digest(array)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"hashing allocated {peak} bytes"


def test_a_file_without_segment_digests_still_reads_and_verifies(tmp_path):
    """Every writer records segment digests; files written before that still read."""
    path = tmp_path / "old.snap"
    writer = SnapshotWriter()
    for name, array in _inputs().items():
        writer.add_array(name, array)
    writer.save(path)
    data = path.read_bytes()
    magic, version, offset, length = struct.unpack("<8sQQQ", data[:32])
    manifest = json.loads(data[offset : offset + length])
    assert all("digest" in entry for entry in manifest["arrays"].values())
    for entry in manifest["arrays"].values():
        del entry["digest"]
    encoded = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    header = struct.pack("<8sQQQ", magic, version, offset, len(encoded))
    path.write_bytes(header + data[32:offset] + encoded)
    with Snapshot.open(path) as snapshot:
        assert snapshot.verify_segments() == [
            (name, True, "no per-segment digest recorded") for name in _inputs()
        ]
        historical = hashlib.blake2b(digest_size=16)
        for name, array in _inputs().items():
            entry = snapshot.entry(name)
            _historical_segment(historical, name, entry["dtype"], tuple(entry["shape"]), array)
        assert snapshot.payload_digest() == historical.hexdigest()
        for name, array in _inputs().items():
            assert snapshot.array(name).tobytes() == np.ascontiguousarray(array).tobytes(), name
