"""Persistent-pool executor: thread == serial equality, pool reuse, teardown.

The thread pool shares the parent's objects (tables, indexes, index cache).
It must produce bit-identical merge + prune output to the serial path —
cache reuse and chunking are performance-only.
"""

import numpy as np
import pytest

from repro.config import MergingConfig, ParallelConfig, PruningConfig
from repro.core.merging import ItemTable, hierarchical_merge_tables
from repro.core.parallel import ParallelExecutor, partition
from repro.core.pruning import prune_item_table, prune_items
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data.entity import EntityRef
from repro.exceptions import ConfigurationError


def _tables(num_tables=5, rows=120, dim=16):
    tables = []
    for seed in range(num_tables):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(rows, dim)).astype(np.float32)
        if seed:  # overlap across tables so merges actually match pairs
            base = np.random.default_rng(0).normal(size=(rows, dim)).astype(np.float32)
            vectors[: rows // 2] = base[: rows // 2] + rng.normal(
                scale=0.01, size=(rows // 2, dim)
            ).astype(np.float32)
        tables.append(
            ItemTable(
                vectors,
                np.zeros(rows, dtype=np.int32),
                np.arange(rows, dtype=np.int64),
                np.arange(rows + 1, dtype=np.int64),
                (f"s{seed}",),
            )
        )
    return tables


def _store(tables):
    store = EmbeddingStore()
    for table in tables:
        name = table.sources[0]
        refs = [EntityRef(name, i) for i in range(len(table))]
        store.add_table(TableEmbeddings(table_name=name, refs=refs, vectors=table.vectors))
    return store


def _table_equal(a: ItemTable, b: ItemTable) -> bool:
    return (
        np.array_equal(a.vectors, b.vectors)
        and np.array_equal(a.member_sources, b.member_sources)
        and np.array_equal(a.member_indices, b.member_indices)
        and np.array_equal(a.member_offsets, b.member_offsets)
        and a.sources == b.sources
    )


@pytest.fixture(scope="module")
def serial_reference():
    tables = _tables()
    config = MergingConfig(index="brute-force", m=0.6)
    merged, stats = hierarchical_merge_tables([t for t in tables], config)
    store = _store(tables)
    pruning = PruningConfig(epsilon=1.0, min_pts=2)
    candidates = merged.filter(merged.sizes >= 2).to_items()
    pruned = prune_items(candidates, store, pruning)
    return tables, config, store, pruning, merged, stats, pruned


@pytest.mark.parametrize("backend", ["thread"])
def test_backend_merge_prune_equals_serial(serial_reference, backend):
    """serial == thread, bit for bit, merge and prune alike."""
    tables, config, store, pruning, merged_ref, stats_ref, pruned_ref = serial_reference
    with ParallelExecutor(ParallelConfig(enabled=True, backend=backend, max_workers=2)) as ex:
        merged, stats = hierarchical_merge_tables([t for t in tables], config, executor=ex)
        assert _table_equal(merged, merged_ref)
        assert stats.matched_pairs_per_level == stats_ref.matched_pairs_per_level
        candidates = merged.filter(merged.sizes >= 2).to_items()
        pruned = prune_items(candidates, store, pruning, executor=ex)
    assert len(pruned) == len(pruned_ref)
    for got, want in zip(pruned, pruned_ref):
        assert got.members == want.members
        assert got.vector.tobytes() == want.vector.tobytes()


@pytest.mark.parametrize("index", ["brute-force", "hnsw"])
def test_thread_merge_and_table_prune_equal_serial(index):
    """Flat-table pruning path, both index families: thread == serial bytes."""
    tables = _tables(rows=70, dim=12)
    store = _store(tables)
    merging = MergingConfig(index=index, m=0.5)
    pruning = PruningConfig(epsilon=1.0)
    merged_ref, _ = hierarchical_merge_tables([t for t in tables], merging)
    pruned_ref = prune_item_table(merged_ref, store, pruning)
    with ParallelExecutor(ParallelConfig(enabled=True, backend="thread", max_workers=2)) as ex:
        merged, _ = hierarchical_merge_tables([t for t in tables], merging, executor=ex)
        pruned = prune_item_table(merged, store, pruning, executor=ex)
    assert _table_equal(merged, merged_ref)
    assert merged.vectors.tobytes() == merged_ref.vectors.tobytes()
    assert [item.members for item in pruned] == [item.members for item in pruned_ref]
    assert all(
        got.vector.tobytes() == want.vector.tobytes() for got, want in zip(pruned, pruned_ref)
    )


@pytest.mark.parametrize("backend", ["thread"])
def test_pool_persists_across_map_calls(backend):
    ex = ParallelExecutor(ParallelConfig(enabled=True, backend=backend, max_workers=2))
    try:
        ex.map(_double, [1, 2, 3])
        pool_first = ex._pool
        assert pool_first is not None, "first parallel map must create the pool"
        ex.map(_double, [4, 5, 6])
        assert ex._pool is pool_first
    finally:
        ex.close()
    assert ex._pool is None
    # A closed executor lazily re-creates its pool instead of failing.
    assert ex.map(_double, [7, 8]) == [14, 16]
    ex.close()


def test_serial_and_single_item_paths_stay_inline():
    ex = ParallelExecutor(ParallelConfig(enabled=False))
    assert not ex.is_parallel
    assert ex.map(_double, [3]) == [6]
    parallel = ParallelExecutor(ParallelConfig(enabled=True, backend="thread"))
    try:
        # Single-item maps never touch the pool.
        assert parallel.map(lambda x: x + 1, [41]) == [42]
        assert parallel._pool is None
    finally:
        parallel.close()


def test_pipeline_tuples_identical_across_backends():
    """End to end: MultiEM predictions match exactly for serial and thread."""
    from repro.config import paper_default_config
    from repro.core import MultiEM
    from repro.data.generators import load_benchmark

    dataset = load_benchmark("music-20", profile="tiny")
    config = paper_default_config("music-20").with_overrides(merging={"index": "hnsw"})
    serial = MultiEM(config).match(dataset)
    assert serial.tuples
    parallel_config = config.with_overrides(
        parallel={"enabled": True, "backend": "thread", "max_workers": 2}
    )
    result = MultiEM(parallel_config).match(dataset)
    assert result.tuples == serial.tuples, "thread backend changed predictions"
    assert result.method == "MultiEM (parallel)"


def test_incremental_matcher_close_is_idempotent():
    from repro.config import paper_default_config
    from repro.core import IncrementalMultiEM
    from repro.data.generators import load_benchmark

    dataset = load_benchmark("music-20", profile="tiny")
    with IncrementalMultiEM(
        paper_default_config("music-20").with_overrides(
            parallel={"enabled": True, "backend": "thread", "max_workers": 2}
        )
    ) as matcher:
        result = matcher.fit(dataset)
        assert result.tuples
        matcher.close()  # explicit close inside the context manager is fine
    matcher.close()  # and again after __exit__


def test_partition_unchanged_contract():
    assert partition(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert partition([], 2) == []


def test_process_backend_is_refused_by_name():
    with pytest.raises(ConfigurationError, match=r'removed.*"thread"'):
        ParallelConfig(backend="process").validate()
    with pytest.raises(ConfigurationError, match="removed"):
        ParallelExecutor(ParallelConfig(enabled=True, backend="process"))


def _double(x):
    return 2 * x
