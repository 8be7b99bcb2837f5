"""Tests for index-cache reuse in merging and representative consistency."""

import numpy as np
import pytest

from repro.ann import IndexCache
from repro.config import MergingConfig, MultiEMConfig, PruningConfig
from repro.core import hierarchical_merge_tables, merge_item_tables, prune_item_table
from repro.core.incremental import IncrementalMultiEM
from repro.core.merging import ItemTable, MergeItem, weighted_mean_vector
from repro.data import EntityRef


def _items(source: str, vectors: np.ndarray) -> list[MergeItem]:
    return [
        MergeItem(members=(EntityRef(source, i),), vector=v.astype(np.float32))
        for i, v in enumerate(vectors)
    ]


def _merge(left: list[MergeItem], right: list[MergeItem], config, **kwargs):
    merged, matched = merge_item_tables(
        ItemTable.from_items(left), ItemTable.from_items(right), config, **kwargs
    )
    return merged.to_items(), matched


@pytest.fixture()
def vector_tables():
    rng = np.random.default_rng(5)
    raw = [rng.normal(size=(30, 12)).astype(np.float32) for _ in range(4)]
    return [m / np.linalg.norm(m, axis=1, keepdims=True) for m in raw]


class TestMergeIndexCache:
    def test_hierarchical_merge_with_cache_matches_without(self, vector_tables):
        tables = [ItemTable.from_items(_items(f"T{i}", m)) for i, m in enumerate(vector_tables)]
        config_cached = MergingConfig(m=0.8, seed=0, index="hnsw", index_cache=True)
        config_plain = MergingConfig(m=0.8, seed=0, index="hnsw", index_cache=False)
        cached, cached_stats = hierarchical_merge_tables(tables, config_cached)
        plain, plain_stats = hierarchical_merge_tables(tables, config_plain)
        assert {frozenset(i.members) for i in cached.to_items()} == {
            frozenset(i.members) for i in plain.to_items()
        }
        assert cached_stats.matched_pairs_per_level == plain_stats.matched_pairs_per_level

    def test_merge_two_tables_shared_cache_avoids_rebuild(self, vector_tables):
        left = _items("L", vector_tables[0])
        right = _items("R", vector_tables[1])
        config = MergingConfig(m=0.2, seed=0, index="hnsw")
        cache = IndexCache(max_entries=4)
        first, _ = _merge(left, right, config, cache=cache)
        assert cache.stats.misses == 2
        # Re-merging the same (unchanged) tables is served from the cache.
        second, _ = _merge(left, right, config, cache=cache)
        assert cache.stats.exact_hits == 2
        assert [i.members for i in first] == [i.members for i in second]

    def test_no_match_merge_output_prefix_extends(self, vector_tables):
        # Orthogonal-ish tables with a tight threshold: nothing matches, the
        # merged output is [left rows; right rows], and indexing that output
        # later reuses the cached left index via prefix extension.
        left = _items("L", vector_tables[0])
        right = _items("R", vector_tables[1])
        config = MergingConfig(m=1e-6, seed=0, index="hnsw")
        cache = IndexCache(max_entries=4)
        merged, matched = _merge(left, right, config, cache=cache)
        assert matched == 0 and len(merged) == len(left) + len(right)
        third = _items("X", vector_tables[2])
        _merge(merged, third, config, cache=cache)
        assert cache.stats.prefix_hits >= 1
        assert cache.stats.saved_rows >= len(left)

    def test_incremental_add_table_reuses_cache(self, music_tiny):
        config = MultiEMConfig().with_overrides(
            merging={"index": "hnsw", "m": 1e-6, "index_cache": True}
        )
        names = sorted(music_tiny.tables)
        matcher = IncrementalMultiEM(config)
        matcher.fit(music_tiny.subset(names[:2]))
        cache = matcher._index_cache
        assert cache is not None
        before = cache.stats.saved_rows
        matcher.add_table(music_tiny.tables[names[2]])
        matcher.add_table(music_tiny.tables[names[3]])
        # The integrated side was carried forward (threshold ~0 matches
        # nothing), so at least one add_table reused it instead of rebuilding.
        assert cache.stats.exact_hits + cache.stats.prefix_hits >= 1
        assert cache.stats.saved_rows > before


class TestRepresentativeConsistency:
    def test_prune_item_uses_merge_weighted_representative(self, store_from_lookup):
        rng = np.random.default_rng(1)
        base = np.zeros(8, dtype=np.float32)
        base[0] = 1.0
        cluster = base[None, :] + rng.normal(scale=0.02, size=(4, 8)).astype(np.float32)
        cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
        outlier = -base
        refs = tuple(EntityRef("S", i) for i in range(5))
        lookup = {refs[i]: cluster[i] for i in range(4)}
        lookup[refs[4]] = outlier
        item = MergeItem(members=refs, vector=cluster.mean(axis=0))
        # Tight epsilon drops the outlier; survivors keep the merge-stage form.
        survivors = prune_item_table(
            ItemTable.from_items([item]),
            store_from_lookup(lookup),
            PruningConfig(epsilon=0.5, min_pts=2),
        )
        assert len(survivors) == 1
        pruned = survivors[0]
        assert len(pruned.members) == 4
        expected = weighted_mean_vector(
            np.stack([lookup[r] for r in pruned.members]),
            np.ones(len(pruned.members), dtype=np.float32),
        )
        assert np.array_equal(pruned.vector, expected.astype(np.float32))
        # The representative is unit-length, exactly like merge output.
        assert np.isclose(float(np.linalg.norm(pruned.vector)), 1.0, atol=1e-5)

    def test_weighted_mean_vector_weights_by_member_count(self):
        a = np.asarray([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        heavy = weighted_mean_vector(a, np.asarray([3.0, 1.0]))
        light = weighted_mean_vector(a, np.asarray([1.0, 1.0]))
        # More weight on the first row pulls the representative toward it.
        assert heavy[0] > light[0]
        assert np.isclose(float(np.linalg.norm(heavy)), 1.0, atol=1e-6)


class TestIncrementalParallel:
    def test_parallel_config_is_threaded_through(self, music_tiny):
        config = MultiEMConfig().with_overrides(
            parallel={"enabled": True, "max_workers": 2}
        )
        names = sorted(music_tiny.tables)
        matcher = IncrementalMultiEM(config)
        result = matcher.fit(music_tiny.subset(names[:3]))
        assert matcher._executor.is_parallel
        assert result.method == "IncrementalMultiEM (parallel)"
        added = matcher.add_table(music_tiny.tables[names[3]])
        assert added.method == "IncrementalMultiEM (parallel)"

    def test_parallel_matches_serial_results(self, music_tiny):
        names = sorted(music_tiny.tables)
        subset = music_tiny.subset(names[:3])
        extra = music_tiny.tables[names[3]]
        serial = IncrementalMultiEM(MultiEMConfig().with_overrides(parallel={"enabled": False}))
        serial.fit(subset)
        serial_result = serial.add_table(extra)
        parallel = IncrementalMultiEM(
            MultiEMConfig().with_overrides(parallel={"enabled": True, "max_workers": 2})
        )
        parallel.fit(subset)
        parallel_result = parallel.add_table(extra)
        assert serial_result.tuples == parallel_result.tuples
        assert serial_result.method == "IncrementalMultiEM"
