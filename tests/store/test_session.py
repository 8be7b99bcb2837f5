"""Load-and-serve sessions: save → load → extend pinned against in-memory runs."""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pytest

from repro.config import ParallelConfig, paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.serialization import serialize_table
from repro.exceptions import DataError, StoreError
from repro.store import MatchSession, load_matcher, save_session
from repro.store.codecs import STORE_DIGEST_SCHEME, embedding_store_digest, item_table_digest
from repro.store.format import PAYLOAD_SCHEME, Snapshot, manifest_payload

#: A full save written while the index cache was persisted (see test_seed_snapshots.py).
SEED_BASE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "seed-base.snap")


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-1], name=music_tiny.name)
    return base, music_tiny.tables[names[-1]]


@pytest.fixture(scope="module")
def reference(split):
    """In-memory fit + add_table — the behaviour a snapshot must reproduce."""
    base, held_out = split
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    fit_result = matcher.fit(base)
    fit_table_digest = item_table_digest(matcher.integrated_table)
    fit_store_digest = embedding_store_digest(matcher._store)
    extended = matcher.add_table(held_out)
    return {
        "fit_tuples": fit_result.tuples,
        "fit_table_digest": fit_table_digest,
        "fit_store_digest": fit_store_digest,
        "extended_tuples": extended.tuples,
        "extended_table_digest": item_table_digest(matcher.integrated_table),
    }


@pytest.fixture(scope="module")
def snapshot_path(split, tmp_path_factory):
    base, _ = split
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    matcher.fit(base)
    path = tmp_path_factory.mktemp("session") / "fit.snap"
    matcher.save(path)
    return path


class TestSessionRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_restored_state_is_byte_identical(self, snapshot_path, reference, mmap):
        matcher = load_matcher(snapshot_path, mmap=mmap)
        assert item_table_digest(matcher.integrated_table) == reference["fit_table_digest"]
        assert embedding_store_digest(matcher._store) == reference["fit_store_digest"]

    @pytest.mark.parametrize("mmap", [True, False])
    def test_match_new_table_reproduces_in_memory_tuples(
        self, snapshot_path, split, reference, mmap
    ):
        """The pinned contract: a restored session's extend == the in-memory run."""
        _, held_out = split
        with MatchSession.load(snapshot_path, mmap=mmap) as session:
            result = session.matcher.add_table(held_out)
            assert result.tuples == reference["extended_tuples"]
            assert {frozenset(t) for t in result.tuples} == {
                frozenset(t) for t in reference["extended_tuples"]
            }
            assert (
                item_table_digest(session.matcher.integrated_table)
                == reference["extended_table_digest"]
            )

    def test_result_without_extend_matches_fit(self, snapshot_path, reference):
        with MatchSession.load(snapshot_path) as session:
            assert session.matcher._result().tuples == reference["fit_tuples"]

    def test_query_finds_known_records(self, snapshot_path, split):
        base, _ = split
        table = base.table_list()[0]
        texts = serialize_table(table, None, max_tokens=64)[:3]
        with MatchSession.load(snapshot_path) as session:
            hits = session.query_many(texts, k=2)
            assert len(hits) == 3
            # Each serialized record must find an integrated tuple containing it.
            for row, row_hits in enumerate(hits):
                assert row_hits, f"no hit for row {row}"
                members = row_hits[0][0]
                assert any(ref.source == table.name and ref.index == row for ref in members)
                assert row_hits[0][1] <= session.matcher.config.merging.m

    def test_query_far_text_returns_nothing(self, snapshot_path):
        with MatchSession.load(snapshot_path) as session:
            assert session.query_many(["zzz qqqqq xyzzy 000000 nothing alike"], k=1) == [[]]

    def test_known_sources_and_digests(self, snapshot_path, split):
        base, _ = split
        session = MatchSession.load(snapshot_path)
        assert session.known_sources == tuple(sorted(base.tables))
        assert set(session.digests) == {
            "item_table", "embedding_store", "embedding_store_scheme", "payload", "payload_scheme"
        }
        assert session.digests["embedding_store_scheme"] == STORE_DIGEST_SCHEME
        assert session.digests["payload_scheme"] == PAYLOAD_SCHEME


class TestQueryMany:
    """The serving plane's batched entry: batch shape must not change answers."""

    @pytest.fixture(scope="class")
    def probe_texts(self, split):
        base, _ = split
        table = base.table_list()[0]
        texts = serialize_table(table, None, max_tokens=64)[:5]
        return texts + ["zzz qqqqq xyzzy 000000 nothing alike"]

    def test_batched_answers_are_batch_invariant(self, snapshot_path, probe_texts):
        """One batched call == per-text serial calls, floats compared exactly.

        This is the contract the request coalescer slices on; it holds on
        every backend because :func:`repro.ann.engine.query_rows` loops
        per row for indexes that are not batch-composition-invariant."""
        with MatchSession.load(snapshot_path) as session:
            batched = session.query_many(probe_texts, k=3)
            serial = [session.query_many([text], k=3)[0] for text in probe_texts]
            assert batched == serial
            # Split composition: any partition of the batch answers the same.
            front = session.query_many(probe_texts[:2], k=3)
            back = session.query_many(probe_texts[2:], k=3)
            assert front + back == batched

    def test_max_distance_filtering_matches_serial(self, snapshot_path, probe_texts):
        with MatchSession.load(snapshot_path) as session:
            batched = session.query_many(probe_texts, k=3, max_distance=0.35)
            serial = [
                session.query_many([text], k=3, max_distance=0.35)[0] for text in probe_texts
            ]
            assert batched == serial
            assert batched[-1] == []  # the far text filters to an empty row

    def test_nan_max_distance_is_a_data_error(self, snapshot_path, probe_texts):
        """NaN compares false with every distance, so it would return every neighbour."""
        with MatchSession.load(snapshot_path) as session:
            with pytest.raises(DataError, match="NaN"):
                session.query_many(probe_texts, k=3, max_distance=float("nan"))
            assert session.query_many(probe_texts, k=3, max_distance=float("inf"))[-1]

    @pytest.mark.parametrize("index", ["brute-force", "hnsw"])
    def test_k_past_the_table_answers_as_k_equal_to_its_size(self, split, probe_texts, index):
        """``query_many`` clamps k to the table; the unclamped index gives the same rows.

        Under HNSW, ``ef = max(ef_search, k)``, so k = n and k = n + 500 search
        with different ``ef``; both reach every row of this table.
        """
        from repro.ann.engine import query_rows

        base, _ = split
        config = paper_default_config(base.name).with_overrides(merging={"index": index})
        matcher = IncrementalMultiEM(config)
        matcher.fit(base)
        with MatchSession(matcher) as session:
            n = len(matcher.integrated_table)
            want = session.query_many(probe_texts, k=n, max_distance=float("inf"))
            assert all(len(hits) == n for hits in want)
            for k in (n + 500, 10**12):
                assert session.query_many(probe_texts, k=k, max_distance=float("inf")) == want
            vectors = session._query_context.representer.encode_texts(probe_texts)
            index_object = session._query_context.index_for(matcher.integrated_table)
            exact = query_rows(index_object, vectors, n)
            wide = query_rows(index_object, vectors, n + 500)
            np.testing.assert_array_equal(wide[0][:, :n], exact[0])
            np.testing.assert_array_equal(wide[1][:, :n], exact[1])
            assert (wide[0][:, n:] == -1).all()

    def test_query_context_is_prepared_once(self, snapshot_path, probe_texts):
        with MatchSession.load(snapshot_path) as session:
            assert session._query_context is None
            session.query_many(probe_texts[:1])
            context = session._query_context
            assert context is not None
            session.query_many(probe_texts[1:3], k=2)
            assert session._query_context is context


class TestPersistedBundles:
    """A snapshot holds what a restore computes with, never the index cache."""

    def test_full_and_delta_saves_hold_no_index_cache(self, split, tmp_path):
        base, held_out = split
        # Exact top-1 merges build no index: graph merges build some.
        config = paper_default_config(base.name).with_overrides(merging={"index": "hnsw"})
        with IncrementalMultiEM(config) as matcher:
            matcher.fit(base)
            matcher.save(tmp_path / "s.snap", mode="full")
            matcher.add_table(held_out)
            matcher.save(tmp_path / "s.snap.d1", mode="delta")
        for name in ("s.snap", "s.snap.d1"):
            with Snapshot.open(tmp_path / name) as snap:
                assert not [n for n in snap.names() if n.startswith("cache/")], name
                assert "cache" not in snap.meta and "shard" not in snap.meta, name
                logical = snap.delta["arrays"] if snap.delta else {}
                assert not [n for n in logical if n.startswith("cache/")], name
                assert {"table", "store", "encoder"} <= set(snap.meta), name


class TestQueryIndexHolder:
    """The query index is built once per integrated table, not per call."""

    def test_cacheless_session_builds_once_per_table(self, split, monkeypatch):
        from repro.ann import mutual as mutual_module

        base, held_out = split
        texts = serialize_table(base.table_list()[0], None, max_tokens=64)[:3]
        config = paper_default_config(base.name)
        builds = []
        real_create_index = mutual_module.create_index

        def counting_create_index(*args, **kwargs):
            builds.append(1)
            return real_create_index(*args, **kwargs)

        # Merges build through the same function: count the query loops only.
        monkeypatch.setattr(mutual_module, "create_index", counting_create_index)
        query_builds = []

        def query_loop(calls: int) -> None:
            before = len(builds)
            for _ in range(calls):
                session.query_many(texts, k=2)
            query_builds.append(len(builds) - before)

        with IncrementalMultiEM(config) as matcher:
            matcher.fit(base)
            session = MatchSession(matcher)
            query_loop(6)
            assert sum(query_builds) == 1
            session.matcher.add_table(held_out)
            query_loop(5)
            assert sum(query_builds) == 2


def _rewrite_manifest_meta(source, target, edit) -> None:
    """Copy a snapshot file, passing its manifest's meta tree through ``edit``.

    The payload digest covers the manifest, so the copy records the edited one's.
    """
    data = source.read_bytes()
    magic, version, offset, length = struct.unpack("<8sQQQ", data[:32])
    manifest = json.loads(data[offset : offset + length])
    edit(manifest["meta"])
    manifest["meta"]["digests"]["payload"] = manifest_payload(manifest)
    encoded = json.dumps(manifest, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    header = struct.pack("<8sQQQ", magic, version, offset, len(encoded))
    target.write_bytes(header + data[32:offset] + encoded)


class TestRetiredConfigKeys:
    """Snapshots written before a config key was removed still load."""

    def test_old_transport_keys_load_with_warnings_and_same_answers(
        self, snapshot_path, split, tmp_path, caplog
    ):
        base, held_out = split
        texts = serialize_table(base.table_list()[0], None, max_tokens=64)[:4]
        old = tmp_path / "old.snap"
        old_keys = dict(
            backend="process", shared_memory=True, reuse_pool=False, self_heal=True,
            task_timeout=None, max_retries=2, retry_backoff=0.1,
        )
        _rewrite_manifest_meta(  # a parent-style manifest: it persisted ``parallel``
            snapshot_path,
            old,
            lambda meta: meta["config"].update(
                parallel=dict(enabled=True, max_workers=None, **old_keys)
            ),
        )
        with caplog.at_level("WARNING", logger="repro.store"):
            session = MatchSession.load(old)
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1 and str(old) in messages[0], messages
        for key in old_keys:
            assert f"parallel.{key} " in messages[0], messages
        with session, MatchSession.load(snapshot_path) as reference:
            assert session.matcher.config == reference.matcher.config
            assert session.query_many(texts, k=3) == reference.query_many(texts, k=3)
            got = session.matcher.add_table(held_out)
            want = reference.matcher.add_table(held_out)
            assert got.tuples == want.tuples
            assert item_table_digest(session.matcher.integrated_table) == item_table_digest(
                reference.matcher.integrated_table
            )

    def test_a_serial_snapshot_loads_on_the_default_pool_with_the_same_tuples(
        self, split, reference, tmp_path, caplog
    ):
        """``parallel`` is how the work ran, not what it computed: a load does not keep it."""
        base, held_out = split
        with IncrementalMultiEM(paper_default_config(base.name, parallel=False)) as matcher:
            matcher.fit(base)
            matcher.save(tmp_path / "serial.snap")
        with Snapshot.open(tmp_path / "serial.snap") as snapshot:
            assert "parallel" not in snapshot.meta["config"]
        old = tmp_path / "old.snap"
        _rewrite_manifest_meta(  # as written while ``parallel`` was persisted
            tmp_path / "serial.snap",
            old,
            lambda meta: meta["config"].update(parallel={"enabled": False, "max_workers": 1}),
        )
        for path, warned in ((tmp_path / "serial.snap", ()), (old, ("enabled", "max_workers"))):
            caplog.clear()
            with caplog.at_level("WARNING", logger="repro.store"):
                session = MatchSession.load(path)
            messages = [record.getMessage() for record in caplog.records]
            assert len(messages) == len(warned[:1]), messages
            for key in warned:
                assert f"config key parallel.{key} " in messages[0], messages
            with session:
                assert session.matcher.config.parallel == ParallelConfig()
                assert session.matcher.add_table(held_out).tuples == reference["extended_tuples"]

    @pytest.mark.parametrize("kernel_threads, quantized_scan", [(1, False), (4, True)])
    def test_old_kernel_keys_load_with_warnings_and_same_answers(
        self, snapshot_path, split, tmp_path, caplog, kernel_threads, quantized_scan
    ):
        """The threaded build and the int8 scan never changed a neighbour id."""
        base, held_out = split
        texts = serialize_table(base.table_list()[0], None, max_tokens=64)[:4]
        old = tmp_path / "old.snap"

        def as_written_before_removal(meta):
            meta["config"]["merging"].update(
                kernel_threads=kernel_threads, quantized_scan=quantized_scan
            )
            meta["config"]["parallel"] = {
                "enabled": True, "max_workers": None, "kernel_threads": kernel_threads
            }

        _rewrite_manifest_meta(snapshot_path, old, as_written_before_removal)
        with caplog.at_level("WARNING", logger="repro.store"):
            session = MatchSession.load(old)
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1 and str(old) in messages[0], messages
        for key in ("merging.kernel_threads", "merging.quantized_scan", "parallel.kernel_threads"):
            assert f"{key} " in messages[0], messages
        with session, MatchSession.load(snapshot_path) as reference:
            assert session.matcher.config == reference.matcher.config
            assert session.query_many(texts, k=3) == reference.query_many(texts, k=3)
            assert session.matcher.add_table(held_out).tuples == (
                reference.matcher.add_table(held_out).tuples
            )
            assert item_table_digest(session.matcher.integrated_table) == item_table_digest(
                reference.matcher.integrated_table
            )

    def test_old_encoder_key_loads_with_one_warning_and_same_answers(
        self, split, tmp_path, caplog, monkeypatch
    ):
        """Manifests written while ``representation.encoder`` existed carry it."""
        from repro.store import codecs

        base, _ = split
        texts = serialize_table(base.table_list()[0], None, max_tokens=64)[:4]
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        config_to_meta = codecs.config_to_meta

        def as_written_before_removal(config):
            meta = config_to_meta(config)
            meta["representation"]["encoder"] = "hashed-ngram"
            return meta

        old = tmp_path / "old.snap"
        with monkeypatch.context() as patch:
            patch.setattr(codecs, "config_to_meta", as_written_before_removal)
            matcher.save(old)
        with caplog.at_level("WARNING", logger="repro.store"):
            session = MatchSession.load(old)
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1 and "representation.encoder " in messages[0], messages
        assert str(old) in messages[0]
        with session, MatchSession(matcher) as reference:
            assert session.matcher.config == matcher.config
            assert session.query_many(texts, k=3) == reference.query_many(texts, k=3)

    def test_unknown_config_key_is_a_store_error(self, snapshot_path, tmp_path):
        bad = tmp_path / "bad.snap"
        _rewrite_manifest_meta(
            snapshot_path, bad, lambda meta: meta["config"]["pruning"].update(warp_factor=9)
        )
        with pytest.raises(StoreError, match=r"bad\.snap.*pruning\.warp_factor"):
            MatchSession.load(bad)


class TestSessionErrors:
    def test_unfitted_matcher_rejected(self, tmp_path):
        matcher = IncrementalMultiEM(paper_default_config("music-20"))
        with pytest.raises(DataError, match="unfitted"):
            save_session(matcher, tmp_path / "x.snap")

    def test_corruption_detected_by_digest(self, snapshot_path, tmp_path):
        data = bytearray(snapshot_path.read_bytes())
        # Flip one byte inside the first array segment (past the header).
        data[80] ^= 0xFF
        corrupted = tmp_path / "corrupt.snap"
        corrupted.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="digests do not match"):
            MatchSession.load(corrupted)

    @pytest.mark.parametrize("prefix", ["encoder/", "cache/"])
    def test_corruption_outside_core_structures_detected(self, snapshot_path, tmp_path, prefix):
        """The payload digest covers every segment, not just table and store.

        New files have no ``cache/`` segment; that case damages an old file's,
        whose dropped bundle is still under the digest.
        """
        if prefix == "cache/":
            snapshot_path = SEED_BASE
        with Snapshot.open(snapshot_path) as snap:
            target = next(
                name
                for name in snap.names()
                if name.startswith(prefix) and snap._entries[name]["nbytes"] > 0
                and "alias_of" not in snap._entries[name]
            )
            entry = snap._entries[target]
        with open(snapshot_path, "rb") as handle:
            data = bytearray(handle.read())
        data[entry["offset"]] ^= 0xFF
        corrupted = tmp_path / "corrupt2.snap"
        corrupted.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="digests do not match"):
            MatchSession.load(corrupted)

    def test_wrong_snapshot_type_rejected(self, tmp_path):
        from repro.store import SnapshotWriter

        writer = SnapshotWriter()
        writer.add_array("x", np.zeros(3))
        writer.set_meta({"type": "something_else"})
        path = tmp_path / "other.snap"
        writer.save(path)
        with pytest.raises(StoreError, match="does not hold a MultiEM session"):
            MatchSession.load(path)
