"""The embedding-store digest is a digest of per-block digests, each hashed once.

A store block never changes once registered, so the store remembers its
digest: a delta save hashes the block it appends, the item table and its own
segments, never a block an earlier save (or a verified load) already knows.
A verified load hashes no block: each is checked the first time its bytes
are read, once. Manifests written before the per-block definition carry no
``embedding_store_scheme`` marker and are verified under the old one, at
load; under either definition a changed byte in one block is refused.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data import EntityRef
from repro.exceptions import StoreError
from repro.store import MatchSession, Snapshot, SnapshotWriter, codecs, load_matcher
from repro.store import format as snapshot_format
from repro.store.fsck import fsck_store
from repro.store.session import session_state_bundle

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture
def hashed(monkeypatch):
    """Every buffer any snapshot digest reads, as ``(data pointer, nbytes)``."""
    seen: list[tuple[int, int]] = []
    raw_bytes = snapshot_format.raw_bytes

    def recording(array):
        flat = raw_bytes(array)
        seen.append((flat.__array_interface__["data"][0], int(flat.nbytes)))
        return flat

    monkeypatch.setattr(snapshot_format, "raw_bytes", recording)
    monkeypatch.setattr(codecs, "raw_bytes", recording)
    return seen


def _pointer(array) -> int:
    return array.__array_interface__["data"][0]


def _table_bytes(matcher) -> int:
    _, arrays = session_state_bundle(matcher.snapshot_state())
    return sum(array.nbytes for name, array in arrays.items() if name.startswith("table/"))


def test_each_delta_save_hashes_what_it_appends_not_the_store(shopee_tiny, tmp_path, hashed):
    names = [table.name for table in shopee_tiny.table_list()]
    config = paper_default_config(shopee_tiny.name, parallel=False)
    with IncrementalMultiEM(config) as matcher:
        matcher.fit(shopee_tiny.subset(names[:2], name=shopee_tiny.name))
        matcher.save(tmp_path / "s.snap")
        published = {_pointer(block) for block in matcher._store.blocks().values()}
        store_bytes = []
        for depth, name in enumerate(names[2:7], start=1):
            matcher.add_table(shopee_tiny.tables[name])
            hashed.clear()
            matcher.save(tmp_path / f"s.snap.d{depth}", mode="delta")
            with Snapshot.open(tmp_path / f"s.snap.d{depth}") as delta:
                segment_bytes = delta.total_bytes()
                assert f"store/block{depth + 1}" in delta.names()
            # The item table once, each own segment once (the payload digest is
            # over the manifest; the new block's segment digest is its block digest).
            assert sum(n for _, n in hashed) == _table_bytes(matcher) + segment_bytes
            assert not published & {pointer for pointer, _ in hashed}, "an old block was re-hashed"
            blocks = matcher._store.blocks()
            published |= {_pointer(block) for block in blocks.values()}
            store_bytes.append(sum(block.nbytes for block in blocks.values()))
    assert len(store_bytes) >= 4 and store_bytes[-1] > store_bytes[0]


def test_a_verified_load_remembers_every_block_and_the_next_delta_starts_warm(
    music_tiny, tmp_path, hashed
):
    names = sorted(music_tiny.tables)
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny.subset(names[:-1], name=music_tiny.name))
        matcher.save(tmp_path / "s.snap")
    unverified = load_matcher(tmp_path / "s.snap", verify=False)
    with unverified:
        assert all(unverified._store.block_digest(name) is None for name in names[:-1])
    with load_matcher(tmp_path / "s.snap") as matcher:
        store = matcher._store
        assert all(store.block_digest(name) is not None for name in names[:-1])
        old_blocks = {_pointer(block) for block in store.blocks().values()}
        matcher.add_table(music_tiny.tables[names[-1]])
        hashed.clear()
        digests = matcher.save(tmp_path / "s.snap.d1", mode="delta")
        assert not old_blocks & {pointer for pointer, _ in hashed}
    with MatchSession.load(tmp_path / "s.snap.d1") as session:
        assert session.digests == digests


def test_the_store_digest_folds_the_manifest_block_segment_digests(music_tiny, tmp_path):
    """An independent re-derivation from the file: names, then each block's segment digest."""
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        recorded = matcher.save(tmp_path / "s.snap")
        cold = EmbeddingStore.from_blocks(matcher._store.blocks())
        assert codecs.embedding_store_digest(cold) == recorded["embedding_store"]
    with Snapshot.open(tmp_path / "s.snap") as snapshot:
        tables = snapshot.meta["store"]["tables"]
        blocks = [snapshot.entry(f"store/block{i}")["digest"] for i in range(len(tables))]
    expected = hashlib.blake2b(digest_size=16)
    expected.update(json.dumps(tables).encode())
    for block in blocks:
        expected.update(block.encode())
    assert recorded["embedding_store"] == expected.hexdigest()
    assert recorded["embedding_store_scheme"] == codecs.STORE_DIGEST_SCHEME


def test_a_write_through_a_registered_block_raises():
    vectors = np.arange(12, dtype=np.float32).reshape(3, 4)
    store = EmbeddingStore()
    store.add_table(TableEmbeddings("t", [EntityRef("t", i) for i in range(3)], vectors))
    restored = EmbeddingStore.from_blocks({"t": vectors.copy()})
    for registered in (store, restored):
        with pytest.raises(ValueError, match="read-only"):
            registered.blocks()["t"][0, 0] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            registered[EntityRef("t", 1)][0] = -1.0
    assert np.shares_memory(store.blocks()["t"], vectors)  # a view, not a copy
    assert vectors.flags.writeable


def _flip_store_byte(path, segment: str = "store/block1") -> None:
    with Snapshot.open(path) as snapshot:
        offset = snapshot.entry(segment)["offset"] + 7
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x10
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("scheme", ["blocks", "legacy"])
def test_a_changed_byte_in_one_store_block_is_refused(music_tiny, tmp_path, scheme):
    if scheme == "legacy":  # written before the per-block and the manifest payload digests
        path = tmp_path / "seed-base.snap"
        shutil.copy(os.path.join(DATA, "seed-base.snap"), path)
    else:
        path = tmp_path / "s.snap"
        with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
            matcher.fit(music_tiny.subset(sorted(music_tiny.tables)[:-1], name=music_tiny.name))
            matcher.save(path)
    with Snapshot.open(path) as snapshot:
        digests = snapshot.meta["digests"]
    assert ("embedding_store_scheme" in digests) == (scheme == "blocks")
    assert ("payload_scheme" in digests) == (scheme == "blocks")
    _flip_store_byte(path)
    if scheme == "legacy":  # verified eagerly: refused at load
        with pytest.raises(StoreError, match="digests do not match"):
            MatchSession.load(path)
        return
    # Refused at the first read of the block, by name, and at every read after.
    with MatchSession.load(path) as session:
        store = session.matcher._store
        damaged = list(store.stored_blocks())[1]
        reads = [
            lambda: store.take(np.arange(len(store))),
            store.blocks,
            lambda: store[EntityRef(damaged, 0)],
            lambda: store.take(np.arange(len(store))),
        ]
        for read in reads:
            with pytest.raises(StoreError, match="store block 'store/block1'") as excinfo:
                read()
            assert str(path) in str(excinfo.value)
        first = list(store.stored_blocks())[0]
        assert store[EntityRef(first, 0)].shape == (store.stored_blocks()[first].shape[1],)
        # A table fold is refused before it changes the matcher, every time.
        held_out = music_tiny.tables[sorted(music_tiny.tables)[-1]]
        for _ in range(2):
            with pytest.raises(StoreError, match="store block 'store/block1'"):
                session.matcher.add_table(held_out)
        assert held_out.name not in session.matcher.known_sources


def _nonblock_bytes(path) -> int:
    with Snapshot.open(path) as snapshot:
        return sum(
            snapshot.entry(name)["nbytes"]
            for name in snapshot.names()
            if not name.startswith("store/block")
        )


def test_a_verified_load_hashes_no_store_block_and_a_first_take_each_touched_block_once(
    music_tiny, tmp_path, hashed
):
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        matcher.save(tmp_path / "s.snap")
    hashed.clear()
    with MatchSession.load(tmp_path / "s.snap") as session:
        # Every other segment once, then the item table's state digest.
        table_bytes = _table_bytes(session.matcher)
        assert sum(n for _, n in hashed) == _nonblock_bytes(tmp_path / "s.snap") + table_bytes
        store = session.matcher._store
        blocks = list(store.stored_blocks().values())
        assert len(blocks) >= 3
        assert not {_pointer(block) for block in blocks} & {pointer for pointer, _ in hashed}
        hashed.clear()
        starts = np.cumsum([0] + [block.shape[0] for block in blocks])
        rows = np.array([starts[0], starts[2], starts[2] + 1, starts[0] + 1])
        before = store.take(rows)
        assert sorted(hashed) == sorted(
            (_pointer(blocks[b]), blocks[b].nbytes) for b in (0, 2)
        )
        hashed.clear()
        assert np.array_equal(store.take(rows), before) and not hashed
        store.blocks()  # the other blocks, once each
        assert sorted(hashed) == sorted(
            (_pointer(block), block.nbytes) for b, block in enumerate(blocks) if b not in (0, 2)
        )


def test_concurrent_first_takes_check_each_block_once(music_tiny, tmp_path, hashed, monkeypatch):
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        matcher.save(tmp_path / "s.snap")
    with MatchSession.load(tmp_path / "s.snap") as session:
        store = session.matcher._store
        recording = snapshot_format.raw_bytes

        def slow(array):  # widen the window in which a second reader could also hash
            time.sleep(0.02)
            return recording(array)

        monkeypatch.setattr(snapshot_format, "raw_bytes", slow)
        hashed.clear()
        rows = np.arange(len(store))
        barrier = threading.Barrier(4)

        def take(_):
            barrier.wait()
            return store.take(rows)

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(take, range(4)))
        assert all(np.array_equal(result, results[0]) for result in results)
        blocks = store.stored_blocks().values()
        assert sorted(hashed) == sorted((_pointer(block), block.nbytes) for block in blocks)


def test_fsck_hashes_each_segment_once(music_tiny, tmp_path, hashed):
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        matcher.save(tmp_path / "s.snap")
    hashed.clear()
    report = fsck_store(tmp_path)
    assert report.ok
    with Snapshot.open(tmp_path / "s.snap") as snapshot:
        total = snapshot.total_bytes()
    assert sum(n for _, n in hashed) == total
    assert len({pointer for pointer, n in hashed if n}) == len([n for _, n in hashed if n])


def _rewrite(source, target, edit) -> None:
    """Copy a snapshot, segments untouched, with ``edit`` applied to its meta."""
    with Snapshot.open(source, mmap=False) as snapshot:
        writer = SnapshotWriter()
        for name in snapshot.names():
            writer.add_array(name, snapshot.array(name))
        meta = copy.deepcopy(snapshot.meta)
    edit(meta)
    writer.set_meta(meta)
    if "payload" in (meta.get("digests") or {}):  # consistent with the edited manifest
        meta["digests"]["payload"] = writer.payload_digest()
    writer.save(target)


def _drop_record(meta):
    del meta["digests"]


def _list_record(meta):
    meta["digests"] = [meta["digests"]["item_table"]]


def _unknown_scheme(meta):
    meta["digests"]["embedding_store_scheme"] = "sha-tree-9"


def _drop_payload(meta):
    del meta["digests"]["payload"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_record, "digest record is missing or not an object"),
        (_list_record, "digest record is missing or not an object"),
        (_unknown_scheme, "unknown embedding-store digest scheme 'sha-tree-9'"),
        (_drop_payload, "payload digests do not match its manifest"),
    ],
    ids=["missing", "not-an-object", "unknown-scheme", "no-payload"],
)
def test_a_bad_digest_record_is_refused_by_name(music_tiny, tmp_path, edit, message):
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        matcher.save(tmp_path / "s.snap")
    _rewrite(tmp_path / "s.snap", tmp_path / "bad.snap", edit)
    with pytest.raises(StoreError, match=message):
        MatchSession.load(tmp_path / "bad.snap")
    load_matcher(tmp_path / "bad.snap", verify=False).close()
    if edit is not _unknown_scheme:  # an intact file this reader cannot read is fsck-clean
        status = {s.name: s for s in fsck_store(tmp_path).files}["bad.snap"]
        assert status.status == "damaged", status
