"""Merging with an explicit index cache, and representative consistency."""

import numpy as np
import pytest

from repro.ann import IndexCache
from repro.config import MergingConfig, MultiEMConfig, PruningConfig
from repro.core import hierarchical_merge_tables, prune_item_table
from repro.core.incremental import IncrementalMultiEM
from repro.core.merging import ItemTable, MergeItem, weighted_mean_vector
from repro.data import EntityRef


def _items(source: str, vectors: np.ndarray) -> list[MergeItem]:
    return [
        MergeItem(members=(EntityRef(source, i),), vector=v.astype(np.float32))
        for i, v in enumerate(vectors)
    ]


@pytest.fixture()
def vector_tables():
    rng = np.random.default_rng(5)
    raw = [rng.normal(size=(30, 12)).astype(np.float32) for _ in range(4)]
    return [m / np.linalg.norm(m, axis=1, keepdims=True) for m in raw]


class TestMergeIndexCache:
    def test_hierarchical_merge_with_cache_matches_without(self, vector_tables):
        tables = [ItemTable.from_items(_items(f"T{i}", m)) for i, m in enumerate(vector_tables)]
        config = MergingConfig(m=0.8, seed=0, index="hnsw")
        cache = IndexCache()
        cached, cached_stats = hierarchical_merge_tables(tables, config, cache=cache)
        plain, plain_stats = hierarchical_merge_tables(tables, config)
        assert cache.stats.misses == 2 * plain_stats.pair_merges
        assert {frozenset(i.members) for i in cached.to_items()} == {
            frozenset(i.members) for i in plain.to_items()
        }
        assert cached_stats.matched_pairs_per_level == plain_stats.matched_pairs_per_level


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
