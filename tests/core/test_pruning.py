"""Tests for density-based pruning (Algorithm 4)."""

import numpy as np
import pytest

from repro.config import ParallelConfig, PruningConfig
from repro.core import ItemTable, MergeItem, classify_entities, prune_item_table
from repro.core.parallel import ParallelExecutor
from repro.data import EntityRef


def _vectors(*rows):
    return np.asarray(rows, dtype=np.float32)


def test_classify_all_core_in_tight_cluster():
    vectors = _vectors([0.0, 0.0], [0.1, 0.0], [0.0, 0.1])
    result = classify_entities(vectors, epsilon=0.5, min_pts=2)
    assert sorted(result.core) == [0, 1, 2]
    assert result.reachable == [] and result.outliers == []


def test_classify_outlier_detected():
    vectors = _vectors([0.0, 0.0], [0.1, 0.0], [5.0, 5.0])
    result = classify_entities(vectors, epsilon=0.5, min_pts=2)
    assert 2 in result.outliers
    assert sorted(result.core) == [0, 1]


def test_classify_reachable_entity():
    # Point 2 is within eps of core point 1 but has only one neighbour besides
    # itself, so with min_pts=3 it is reachable, not core.
    vectors = _vectors([0.0], [0.4], [0.8])
    result = classify_entities(vectors, epsilon=0.5, min_pts=3)
    assert 1 in result.core
    assert 0 in result.reachable or 0 in result.core
    assert 2 in result.reachable


def test_classify_empty_item():
    result = classify_entities(np.zeros((0, 3)), epsilon=1.0, min_pts=2)
    assert result.core == [] and result.reachable == [] and result.outliers == []


def test_classify_pairwise_far_apart_all_outliers():
    vectors = _vectors([0.0, 0.0], [10.0, 10.0])
    result = classify_entities(vectors, epsilon=0.5, min_pts=2)
    assert sorted(result.outliers) == [0, 1]




def _item(vectors: dict[EntityRef, np.ndarray]) -> MergeItem:
    members = tuple(sorted(vectors))
    stacked = np.stack([vectors[m] for m in members]).mean(axis=0)
    return MergeItem(members=members, vector=stacked.astype(np.float32))


@pytest.fixture()
def prune(store_from_lookup):
    """``prune_item_table`` over the items' table and the lookup's store."""

    def run(items, lookup, config, **kwargs):
        table = ItemTable.from_items(items)
        return prune_item_table(table, store_from_lookup(lookup), config, **kwargs)

    return run


def test_prune_item_removes_outlier(prune):
    lookup = {
        EntityRef("A", 0): np.asarray([0.0, 0.0], dtype=np.float32),
        EntityRef("B", 0): np.asarray([0.1, 0.0], dtype=np.float32),
        EntityRef("C", 0): np.asarray([0.0, 0.1], dtype=np.float32),
        EntityRef("D", 0): np.asarray([8.0, 8.0], dtype=np.float32),
    }
    item = _item(lookup)
    pruned = prune([item], lookup, PruningConfig(epsilon=0.5, min_pts=2))
    assert len(pruned) == 1
    assert EntityRef("D", 0) not in pruned[0].members
    assert len(pruned[0].members) == 3


def test_prune_item_unchanged_when_all_dense(prune):
    lookup = {
        EntityRef("A", 0): np.asarray([0.0, 0.0], dtype=np.float32),
        EntityRef("B", 0): np.asarray([0.1, 0.0], dtype=np.float32),
    }
    item = _item(lookup)
    [pruned] = prune([item], lookup, PruningConfig(epsilon=0.5, min_pts=2))
    # untouched when nothing is removed: same members, same merged vector
    assert pruned.members == item.members
    assert pruned.vector.tobytes() == item.vector.tobytes()


def test_prune_item_dropped_when_all_members_far(prune):
    lookup = {
        EntityRef("A", 0): np.asarray([0.0, 0.0], dtype=np.float32),
        EntityRef("B", 0): np.asarray([9.0, 9.0], dtype=np.float32),
    }
    item = _item(lookup)
    assert prune([item], lookup, PruningConfig(epsilon=0.5, min_pts=2)) == []


def test_prune_item_singleton_returns_none(prune):
    ref = EntityRef("A", 0)
    lookup = {ref: np.zeros(2, dtype=np.float32)}
    item = MergeItem(members=(ref,), vector=np.zeros(2, dtype=np.float32))
    assert prune([item], lookup, PruningConfig()) == []


def test_prune_items_disabled_passes_candidates_through(prune):
    lookup = {
        EntityRef("A", 0): np.asarray([0.0, 0.0], dtype=np.float32),
        EntityRef("B", 0): np.asarray([9.0, 9.0], dtype=np.float32),
    }
    item = _item(lookup)
    [kept] = prune([item], lookup, PruningConfig(enabled=False))
    assert kept.members == item.members
    assert kept.vector.tobytes() == item.vector.tobytes()


def test_prune_items_parallel_matches_serial(prune):
    rng = np.random.default_rng(0)
    lookup: dict[EntityRef, np.ndarray] = {}
    items = []
    for group in range(20):
        refs = [EntityRef(chr(ord("A") + s), group) for s in range(4)]
        center = rng.normal(size=2)
        for i, ref in enumerate(refs):
            offset = rng.normal(scale=0.05, size=2) if i < 3 else rng.normal(loc=5, size=2)
            lookup[ref] = (center + offset).astype(np.float32)
        items.append(_item({r: lookup[r] for r in refs}))
    config = PruningConfig(epsilon=0.5, min_pts=2)
    serial = prune(items, lookup, config)
    parallel_exec = ParallelExecutor(ParallelConfig(enabled=True, max_workers=3))
    parallel = prune(items, lookup, config, executor=parallel_exec)
    assert {frozenset(i.members) for i in serial} == {frozenset(i.members) for i in parallel}
    # Every surviving item lost its far-away fourth member.
    assert all(len(i.members) == 3 for i in serial)


def test_prune_items_empty_input(prune):
    assert prune([], {}, PruningConfig()) == []


@pytest.mark.parametrize("m", (0.35, 0.5))
@pytest.mark.parametrize(
    "fixture, name", [("geo_tiny", "geo"), ("music_tiny", "music-20"), ("shopee_tiny", "shopee")]
)
def test_pair_tuples_survive_once_epsilon_covers_the_merge_threshold(request, fixture, name, m):
    """Unit-norm vectors: a pair merged at d_cos <= m is within euclidean √(2m)."""
    from repro import MultiEM, paper_default_config

    dataset = request.getfixturevalue(fixture)
    config = paper_default_config(name, parallel=False).with_overrides(
        merging={"m": m}, pruning={"epsilon": float(np.sqrt(2 * m)) + 1e-4}
    )
    assert config.merging.metric == "cosine"
    assert config.pruning.min_pts == 2
    unpruned = MultiEM(config.with_overrides(pruning={"enabled": False})).match(dataset).tuples
    pairs = {group for group in unpruned if len(group) == 2}
    assert pairs
    assert pairs <= MultiEM(config).match(dataset).tuples
