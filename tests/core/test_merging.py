"""Tests for table-wise hierarchical merging (Algorithms 2-3)."""

import numpy as np
import pytest

from repro import IncrementalMultiEM, MultiEM
from repro.config import MergingConfig, paper_default_config
from repro.core import ItemTable, MergeItem, hierarchical_merge_tables, merge_item_tables
from repro.core.parallel import ParallelExecutor
from repro.data import EntityRef, Table
from repro.data.dataset import MultiTableDataset


def _item(source: str, index: int, vector: list[float]) -> MergeItem:
    array = np.asarray(vector, dtype=np.float32)
    return MergeItem(members=(EntityRef(source, index),), vector=array / np.linalg.norm(array))


def _merge(left, right, config, **kwargs):
    merged, matched = merge_item_tables(
        ItemTable.from_items(left), ItemTable.from_items(right), config, **kwargs
    )
    return merged.to_items(), matched


def _hierarchy(tables, config, **kwargs):
    integrated, stats = hierarchical_merge_tables(
        [ItemTable.from_items(table) for table in tables], config, **kwargs
    )
    return integrated.to_items(), stats


def _assert_same_items(got, want):
    assert [item.members for item in got] == [item.members for item in want]
    assert [item.vector.tobytes() for item in got] == [item.vector.tobytes() for item in want]


def test_merge_two_tables_pairs_matching_items():
    left = [_item("A", 0, [1.0, 0.0]), _item("A", 1, [0.0, 1.0])]
    right = [_item("B", 0, [0.95, 0.05]), _item("B", 1, [0.05, 0.95])]
    merged, matched = _merge(left, right, MergingConfig(m=0.5))
    assert matched == 2
    assert len(merged) == 2
    sizes = sorted(item.size for item in merged)
    assert sizes == [2, 2]
    for item in merged:
        assert np.isclose(np.linalg.norm(item.vector), 1.0, atol=1e-5)


def test_merge_two_tables_keeps_mismatched_items():
    left = [_item("A", 0, [1.0, 0.0])]
    right = [_item("B", 0, [0.0, 1.0])]
    merged, matched = _merge(left, right, MergingConfig(m=0.3))
    assert matched == 0
    assert len(merged) == 2
    assert all(item.size == 1 for item in merged)


def test_merge_two_tables_empty_sides():
    item = [_item("A", 0, [1.0, 0.0])]
    merged, matched = _merge([], item, MergingConfig())
    _assert_same_items(merged, item)
    assert matched == 0
    merged, matched = _merge(item, [], MergingConfig())
    _assert_same_items(merged, item)
    assert matched == 0


def test_merge_accumulates_members_across_levels():
    config = MergingConfig(m=0.5, seed=0)
    tables = [
        [_item("A", 0, [1.0, 0.0]), _item("A", 1, [0.0, 1.0])],
        [_item("B", 0, [0.98, 0.02])],
        [_item("C", 0, [0.96, 0.04])],
        [_item("D", 0, [0.99, 0.01])],
    ]
    integrated, stats = _hierarchy(tables, config)
    assert stats.levels == 2
    big = max(integrated, key=lambda item: item.size)
    assert big.size == 4  # A0, B0, C0, D0 all merged
    assert {ref.source for ref in big.members} == {"A", "B", "C", "D"}


def test_hierarchical_merge_single_table_returns_it():
    table = [_item("A", 0, [1.0, 0.0])]
    integrated, stats = _hierarchy([table], MergingConfig())
    _assert_same_items(integrated, table)
    assert stats.levels == 0


def test_hierarchical_merge_empty_input():
    integrated, stats = _hierarchy([], MergingConfig())
    assert integrated == []
    assert stats.levels == 0


def test_hierarchical_merge_odd_table_count():
    tables = [
        [_item("A", 0, [1.0, 0.0])],
        [_item("B", 0, [0.99, 0.01])],
        [_item("C", 0, [0.98, 0.02])],
    ]
    integrated, stats = _hierarchy(tables, MergingConfig(m=0.5, seed=1))
    assert stats.levels == 2
    assert max(item.size for item in integrated) == 3


def test_hierarchical_merge_parallel_matches_serial(music_tiny, representer):
    embeddings = representer.encode_dataset(music_tiny)
    tables = [ItemTable.from_embeddings(embeddings[t.name]) for t in music_tiny.table_list()]
    config = MergingConfig(m=0.6, seed=0)
    from repro.config import ParallelConfig

    serial, _ = hierarchical_merge_tables(
        tables, config, executor=ParallelExecutor(ParallelConfig(enabled=False))
    )
    parallel_exec = ParallelExecutor(ParallelConfig(enabled=True, max_workers=2))
    parallel, _ = hierarchical_merge_tables(tables, config, executor=parallel_exec)
    serial_groups = {frozenset(item.members) for item in serial.to_items()}
    parallel_groups = {frozenset(item.members) for item in parallel.to_items()}
    assert serial_groups == parallel_groups


def test_merge_respects_distance_threshold_monotonicity(music_tiny, representer):
    embeddings = representer.encode_dataset(music_tiny)
    tables = [ItemTable.from_embeddings(embeddings[t.name]) for t in music_tiny.table_list()]
    loose, _ = hierarchical_merge_tables(tables, MergingConfig(m=0.8, seed=0))
    strict, _ = hierarchical_merge_tables(tables, MergingConfig(m=0.2, seed=0))
    assert sum(i.size > 1 for i in loose.to_items()) >= sum(i.size > 1 for i in strict.to_items())


def test_items_from_embeddings_roundtrip(geo_tiny, representer):
    table = geo_tiny.table_list()[0]
    embeddings = representer.encode_table(table)
    items = ItemTable.from_embeddings(embeddings).to_items()
    assert len(items) == len(table)
    assert all(item.size == 1 for item in items)
    assert items[0].members[0] == embeddings.refs[0]
    assert items[0].vector.tobytes() == embeddings.vectors[0].tobytes()


def test_candidate_tuples_filters_singletons():
    items = [
        MergeItem(members=(EntityRef("A", 0),), vector=np.ones(2, dtype=np.float32)),
        MergeItem(members=(EntityRef("A", 1), EntityRef("B", 1)), vector=np.ones(2, dtype=np.float32)),
    ]
    table = ItemTable.from_items(items)
    candidates = table.filter(table.sizes >= 2).to_items()
    assert len(candidates) == 1
    assert candidates[0].members == items[1].members


def test_medoid_representative_option():
    left = [_item("A", 0, [1.0, 0.0])]
    right = [_item("B", 0, [0.9, 0.1])]
    mean_merged, _ = _merge(left, right, MergingConfig(m=0.5), representative="mean")
    medoid_merged, _ = _merge(left, right, MergingConfig(m=0.5), representative="medoid")
    assert mean_merged[0].size == medoid_merged[0].size == 2
    assert not np.allclose(mean_merged[0].vector, medoid_merged[0].vector)


def test_merge_no_duplicate_members():
    # Duplicate refs across items must collapse in the merged member tuple.
    shared = EntityRef("A", 0)
    left = [MergeItem(members=(shared,), vector=np.asarray([1.0, 0.0], dtype=np.float32))]
    right = [MergeItem(members=(shared, EntityRef("B", 0)),
                       vector=np.asarray([0.99, 0.01], dtype=np.float32))]
    merged, _ = _merge(left, right, MergingConfig(m=0.5))
    assert len(merged) == 1
    assert len(merged[0].members) == len(set(merged[0].members)) == 2


@pytest.mark.parametrize("index", ["brute-force", "hnsw"])
def test_an_empty_source_changes_no_tuple(music_tiny, index):
    """A table with no rows, named first or last, sits out Algorithm 2's plan
    (where it would redraw the pairing of the others): ``MultiEM.match`` and
    ``IncrementalMultiEM.fit`` find the tuples they find without it."""
    config = paper_default_config("music-20").with_overrides(merging={"index": index})
    want = MultiEM(config).match(music_tiny).tuples
    for name in ("source_0", "source_Z"):  # sorts before / after every source
        padded = MultiTableDataset.from_tables(
            music_tiny.name, [*music_tiny.table_list(), Table(name, music_tiny.schema)]
        )
        assert MultiEM(config).match(padded).tuples == want
        with IncrementalMultiEM(config) as matcher:
            assert matcher.fit(padded).tuples == want
