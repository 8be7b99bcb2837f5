"""Object codecs: every flat-array core type round-trips byte-identically."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MultiEMConfig, ParallelConfig
from repro.core.merging import ItemTable, MergeItem
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data.entity import EntityRef
from repro.exceptions import ConfigurationError, StoreError
from repro.store import Snapshot, SnapshotWriter
from repro.store import codecs


def roundtrip(state, from_state, tmp_path, *, mmap=True):
    """Write one bundle to disk and read it back (mmap by default)."""
    meta, arrays = state
    writer = SnapshotWriter()
    for name, array in arrays.items():
        writer.add_array("obj/" + name, array)
    writer.set_meta(meta)
    path = tmp_path / "bundle.bin"
    writer.save(path)
    snap = Snapshot.open(path, mmap=mmap)
    return from_state(snap.meta, {name: snap.array("obj/" + name) for name in arrays})


@pytest.fixture
def item_table():
    rng = np.random.default_rng(3)
    items = [
        MergeItem(
            members=(EntityRef("a", 0), EntityRef("b", 4)),
            vector=rng.normal(size=8).astype(np.float32),
        ),
        MergeItem(members=(EntityRef("b", 1),), vector=rng.normal(size=8).astype(np.float32)),
        MergeItem(
            members=(EntityRef("a", 2), EntityRef("c", 0), EntityRef("b", 9)),
            vector=rng.normal(size=8).astype(np.float32),
        ),
    ]
    return ItemTable.from_items(items)


class TestItemTable:
    def test_roundtrip_byte_identical(self, item_table, tmp_path):
        for mmap in (True, False):
            loaded = roundtrip(
                codecs.item_table_state(item_table),
                codecs.item_table_from_state,
                tmp_path,
                mmap=mmap,
            )
            assert codecs.item_table_digest(loaded) == codecs.item_table_digest(item_table)
            assert loaded.sources == item_table.sources
            assert [i.members for i in loaded.to_items()] == [
                i.members for i in item_table.to_items()
            ]

    def test_digest_tracks_content(self, item_table):
        other = ItemTable(
            item_table.vectors.copy(),
            item_table.member_sources,
            item_table.member_indices,
            item_table.member_offsets,
            item_table.sources,
        )
        assert codecs.item_table_digest(other) == codecs.item_table_digest(item_table)
        other.vectors[0, 0] += 1.0
        assert codecs.item_table_digest(other) != codecs.item_table_digest(item_table)


class TestEmbeddingStore:
    def test_roundtrip_preserves_blocks_and_resolution(self, tmp_path):
        rng = np.random.default_rng(5)
        store = EmbeddingStore()
        for name, rows in (("t1", 4), ("t0", 3)):  # registration order != sorted
            vectors = rng.normal(size=(rows, 6)).astype(np.float32)
            store.add_table(
                TableEmbeddings(name, [EntityRef(name, i) for i in range(rows)], vectors)
            )
        loaded = roundtrip(
            codecs.embedding_store_state(store), codecs.embedding_store_from_state, tmp_path
        )
        assert codecs.embedding_store_digest(loaded) == codecs.embedding_store_digest(store)
        assert list(loaded.blocks()) == ["t1", "t0"]
        for name, block in store.blocks().items():
            assert loaded.blocks()[name].tobytes() == block.tobytes()
        ref = EntityRef("t0", 2)
        assert loaded[ref].tobytes() == store[ref].tobytes()
        rows = loaded.member_rows(("t0", "t1"), np.array([0, 1]), np.array([2, 3]))
        assert rows.tolist() == store.member_rows(("t0", "t1"), np.array([0, 1]), np.array([2, 3])).tolist()


class TestEncoders:
    def test_hashed_encoder_roundtrip_same_vectors(self, tmp_path):
        from repro.embedding import HashedNGramEncoder

        corpus = ["alpha beta 42", "beta gamma", "gamma delta épsilon", "42 42 count"]
        encoder = HashedNGramEncoder(dimension=64, seed=9).fit(corpus)
        loaded = roundtrip(codecs.encoder_state(encoder), codecs.encoder_from_state, tmp_path)
        texts = ["alpha gamma 42", "unseen token stream"]
        assert loaded.encode(texts).tobytes() == encoder.encode(texts).tobytes()
        assert loaded._vocabulary.num_documents == encoder._vocabulary.num_documents
        assert loaded._vocabulary.token_to_index == encoder._vocabulary.token_to_index

    def test_caching_wrapper_unwrapped(self, tmp_path):
        from repro.embedding import CachingEncoder, HashedNGramEncoder

        encoder = CachingEncoder(HashedNGramEncoder(dimension=32).fit(["a b", "b c"]))
        loaded = roundtrip(codecs.encoder_state(encoder), codecs.encoder_from_state, tmp_path)
        assert loaded.encode(["a c"]).tobytes() == encoder.inner.encode(["a c"]).tobytes()

    def test_removed_tfidf_svd_encoder_is_refused_by_name(self):
        """A snapshot of the removed TF-IDF+SVD encoder says so instead of guessing."""
        meta = {
            "type": "encoder", "kind": "tfidf-svd", "dimension": 8, "seed": 1,
            "analyzer": "char", "min_df": 1, "ngram_range": [3, 4], "projection_features": None,
        }
        with pytest.raises(StoreError, match=r"'tfidf-svd'.*removed.*refit"):
            codecs.encoder_from_state(meta, {})
        with pytest.raises(StoreError, match="unknown encoder kind 'bert'"):
            codecs.encoder_from_state(dict(meta, kind="bert"), {})


class TestConfig:
    def test_config_roundtrip(self):
        """The content sections round-trip; ``parallel`` is not persisted."""
        config = MultiEMConfig().with_overrides(
            merging={"m": 0.35, "index": "hnsw"}, pruning={"epsilon": 1.2}
        )
        serial = config.with_overrides(parallel=ParallelConfig(enabled=False, max_workers=2))
        meta = codecs.config_to_meta(serial)
        assert set(meta) == {"representation", "merging", "pruning"}
        assert codecs.config_from_meta(meta) == config

    def test_retired_keys_are_dropped_and_unknown_keys_rejected(self, caplog):
        """Manifests written before the transports were removed still decode."""
        config = MultiEMConfig()
        meta = codecs.config_to_meta(config)
        old_keys = dict(
            backend="process", shared_memory=True, reuse_pool=False, self_heal=True,
            task_timeout=None, max_retries=2, retry_backoff=0.1,
        )
        meta["parallel"] = dict(enabled=False, max_workers=2, **old_keys)
        meta["representation"]["encoder"] = "hashed-ngram"
        lsh_keys = dict(lsh_num_tables=8, lsh_num_bits=12, lsh_probe_neighbors=True)
        meta["merging"].update(lsh_keys)
        meta["pruning"].update(metric="euclidean", batch_rows=7)
        with caplog.at_level("WARNING", logger="repro.store"):
            restored = codecs.config_from_meta(meta, source="old.snap")
        assert restored == config
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1 and "old.snap" in messages[0], messages
        names = [f"parallel.{key} " for key in ("enabled", "max_workers", *old_keys)]
        names += ["representation.encoder ", "pruning.metric ", "pruning.batch_rows "]
        names += [f"merging.{key} " for key in lsh_keys]
        for name in names:
            assert messages[0].count(name) == 1, (name, messages)
        meta = codecs.config_to_meta(config)
        meta["merging"]["warp_factor"] = 9
        with pytest.raises(StoreError, match=r"old\.snap.*merging\.warp_factor"):
            codecs.config_from_meta(meta, source="old.snap")

    def test_a_manifest_naming_the_removed_lsh_backend_is_refused(self):
        meta = codecs.config_to_meta(MultiEMConfig())
        meta["merging"]["index"] = "lsh"
        with pytest.raises(StoreError, match=r"old\.snap: .*merging: .*'lsh'"):
            codecs.config_from_meta(meta, source="old.snap")

    def test_a_manifest_naming_the_removed_euclidean_merging_metric_is_refused(self, caplog):
        """``merging.metric: "cosine"`` is what runs now; ``"euclidean"`` merged other pairs."""
        meta = codecs.config_to_meta(MultiEMConfig())
        assert "metric" not in meta["merging"]
        meta["merging"]["metric"] = "cosine"
        with caplog.at_level("WARNING", logger="repro.store"):
            assert codecs.config_from_meta(meta, source="old.snap") == MultiEMConfig()
        (message,) = [record.getMessage() for record in caplog.records]
        assert "config key merging.metric (merging distance is cosine" in message, message
        meta["merging"]["metric"] = "euclidean"
        with pytest.raises(StoreError, match=r"old\.snap: .*merging: merging\.metric 'euclidean' was removed"):
            codecs.config_from_meta(meta, source="old.snap")

    def test_a_manifest_naming_the_removed_cosine_pruning_metric_is_refused(self, caplog):
        """``pruning.metric: "euclidean"`` is what runs now; ``"cosine"`` pruned other members."""
        meta = codecs.config_to_meta(MultiEMConfig())
        assert "metric" not in meta["pruning"]
        meta["pruning"]["metric"] = "euclidean"
        with caplog.at_level("WARNING", logger="repro.store"):
            assert codecs.config_from_meta(meta, source="old.snap") == MultiEMConfig()
        (message,) = [record.getMessage() for record in caplog.records]
        assert "config key pruning.metric (pruning distance is euclidean" in message, message
        meta["pruning"]["metric"] = "cosine"
        with pytest.raises(StoreError, match=r"old\.snap: .*pruning: pruning\.metric 'cosine' was removed"):
            codecs.config_from_meta(meta, source="old.snap")

    @pytest.mark.parametrize("section", [None, 7, {}])
    def test_a_missing_or_malformed_parallel_section_is_not_read(self, section, caplog):
        meta = codecs.config_to_meta(MultiEMConfig())
        if section is not None:
            meta["parallel"] = section
        with caplog.at_level("WARNING", logger="repro.store"):
            assert codecs.config_from_meta(meta, source="old.snap") == MultiEMConfig()
        assert not caplog.records

    @pytest.mark.parametrize(
        "damage, message, cause",
        [
            (lambda meta: meta.pop("pruning"), "section pruning is missing", KeyError),
            (lambda meta: meta.update(pruning=7), "section pruning: 'int' object", TypeError),
            (lambda meta: 7, "section representation: 'int' object", TypeError),
            (
                lambda meta: meta["merging"].update(k="x"),
                "section merging: merging.k must be int, not str 'x'",
                ConfigurationError,
            ),
        ],
        ids=["missing-section", "non-dict-section", "non-dict-config", "wrong-value-type"],
    )
    def test_malformed_config_is_a_store_error_naming_source_and_section(
        self, damage, message, cause
    ):
        meta = codecs.config_to_meta(MultiEMConfig())
        replaced = damage(meta)
        if isinstance(replaced, int):
            meta = replaced
        with pytest.raises(StoreError, match=rf"bad\.snap: .*{message}") as excinfo:
            codecs.config_from_meta(meta, source="bad.snap")
        assert isinstance(excinfo.value.__cause__, cause)
