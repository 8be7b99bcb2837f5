"""Byte-identity property tests: flat-array engines vs the per-item seed paths.

The merging and pruning stages were rewritten onto flat column-store arrays
(``ItemTable`` / ``EmbeddingStore`` + batched kernels). The references below
are verbatim copies of the historical per-item implementations; the new
engines must reproduce them **bit for bit** — group composition, output
order, member tuples and raw vector bytes, untouched items included — on
randomized inputs covering ties, singletons, empty tables, shared/duplicate
refs, and all-outlier tuples.
"""

import numpy as np
import pytest

from repro.ann.distances import batched_pairwise_distances, pairwise_distances
from repro.ann.mutual import mutual_top_k
from repro.config import MergingConfig, ParallelConfig, PruningConfig
from repro.core import (
    ItemTable,
    MergeItem,
    classify_entities,
    hierarchical_merge_tables,
    merge_item_tables,
    prune_item_table,
    weighted_mean_vector,
)
from repro.core.parallel import ParallelExecutor
from repro.data import EntityRef
from repro.embedding.base import normalize_rows
from repro.embedding.pooling import medoid_pool


# --------------------------------------------------------------------------
# Reference implementations (copied verbatim from the pre-flat-array seed).
# --------------------------------------------------------------------------


def _reference_representative(items, strategy):
    stacked = np.stack([item.vector for item in items])
    if strategy == "medoid":
        pooled = medoid_pool(stacked)
        return normalize_rows(pooled[None, :])[0]
    return weighted_mean_vector(stacked, np.array([item.size for item in items], dtype=np.float32))


def reference_merge_two_tables(left, right, config, *, representative="mean"):
    """The seed's dict-of-tuples union-find two-table merge."""
    if not left:
        return list(right), 0
    if not right:
        return list(left), 0
    left_vectors = np.stack([item.vector for item in left])
    right_vectors = np.stack([item.vector for item in right])
    pairs = mutual_top_k(
        left_vectors,
        right_vectors,
        k=config.k,
        max_distance=config.m,
        metric=config.metric,
        backend=config.index,
        brute_force_limit=config.brute_force_limit,
        index_kwargs={
            "hnsw_max_degree": config.hnsw_max_degree,
            "hnsw_ef_construction": config.hnsw_ef_construction,
            "hnsw_ef_search": config.hnsw_ef_search,
            "seed": config.seed,
        },
    )
    parent = {}

    def find(node):
        parent.setdefault(node, node)
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for pair in pairs:
        union((0, pair.left), (1, pair.right))

    groups = {}
    for side, items in ((0, left), (1, right)):
        for position, item in enumerate(items):
            node = (side, position)
            if node in parent:
                groups.setdefault(find(node), []).append(item)
            else:
                groups[(side, position)] = [item]

    merged = []
    for group in groups.values():
        if len(group) == 1:
            merged.append(group[0])
            continue
        members = tuple(sorted({ref for item in group for ref in item.members}))
        merged.append(MergeItem(members=members, vector=_reference_representative(group, representative)))
    return merged, len(pairs)


def reference_prune_item(item, embedding_lookup, config):
    """The seed's per-tuple pruning (via the unchanged classify_entities)."""
    if item.size < 2:
        return None
    vectors = np.stack([embedding_lookup[ref] for ref in item.members])
    classification = classify_entities(vectors, config.epsilon, config.min_pts, config.metric)
    keep_indices = sorted(classification.core + classification.reachable)
    if len(keep_indices) < 2:
        return None
    if len(keep_indices) == item.size:
        return item
    members = tuple(item.members[i] for i in keep_indices)
    survivors = vectors[keep_indices]
    vector = weighted_mean_vector(survivors, np.ones(len(keep_indices), dtype=np.float32))
    return MergeItem(members=members, vector=vector.astype(np.float32))


def reference_prune_items(items, embedding_lookup, config):
    survivors = []
    for item in items:
        if item.size < 2:
            continue
        if not config.enabled:
            survivors.append(item)
            continue
        pruned = reference_prune_item(item, embedding_lookup, config)
        if pruned is not None:
            survivors.append(pruned)
    return survivors


# --------------------------------------------------------------------------
# Random input generators.
# --------------------------------------------------------------------------


def _random_items(rng, n, d, sources, *, tie_rate=0.3, multi_rate=0.3, max_members=4):
    """Random merge items with vector ties and occasional multi-member groups."""
    items = []
    base = rng.normal(size=(max(n, 1), d)).astype(np.float32)
    for i in range(n):
        if i and rng.random() < tie_rate:
            vector = items[rng.integers(0, i)].vector.copy()  # exact duplicate vector
        else:
            vector = base[i]
            vector = (vector / np.linalg.norm(vector)).astype(np.float32)
        if rng.random() < multi_rate:
            size = int(rng.integers(2, max_members + 1))
            members = tuple(
                sorted(
                    {
                        EntityRef(str(rng.choice(sources)), int(rng.integers(0, 50)))
                        for _ in range(size)
                    }
                )
            )
        else:
            members = (EntityRef(str(rng.choice(sources)), int(rng.integers(0, 50))),)
        items.append(MergeItem(members=members, vector=vector))
    return items


def _merge(left, right, config, **kwargs):
    merged, matched = merge_item_tables(
        ItemTable.from_items(left), ItemTable.from_items(right), config, **kwargs
    )
    return merged.to_items(), matched


def _assert_items_identical(got, want):
    assert len(got) == len(want)
    for new_item, ref_item in zip(got, want):
        assert new_item.members == ref_item.members
        assert new_item.vector.dtype == ref_item.vector.dtype
        assert new_item.vector.tobytes() == ref_item.vector.tobytes()


# --------------------------------------------------------------------------
# Merging equivalence.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("representative", ["mean", "medoid"])
def test_merge_two_tables_matches_reference(seed, representative):
    rng = np.random.default_rng(seed)
    config = MergingConfig(m=float(rng.choice([0.3, 0.6, 1.2])), seed=seed)
    left = _random_items(rng, int(rng.integers(0, 40)), 8, ["A", "B"])
    right = _random_items(rng, int(rng.integers(0, 40)), 8, ["B", "C"])
    got, got_matched = _merge(left, right, config, representative=representative)
    want, want_matched = reference_merge_two_tables(left, right, config, representative=representative)
    assert got_matched == want_matched
    _assert_items_identical(got, want)


def test_merge_two_tables_empty_and_singleton_edges():
    config = MergingConfig(m=0.5)
    item = MergeItem(members=(EntityRef("A", 0),), vector=np.asarray([1.0, 0.0], dtype=np.float32))
    for left, right in (([], [item]), ([item], [])):
        got, matched = _merge(left, right, config)
        assert matched == 0
        _assert_items_identical(got, [item])
    got, _ = _merge([item], [item], config)
    want, _ = reference_merge_two_tables([item], [item], config)
    _assert_items_identical(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_hierarchical_merge_matches_reference_levels(seed):
    """Multi-level merge: flat tables carried across levels vs per-level reference."""
    rng = np.random.default_rng(100 + seed)
    config = MergingConfig(m=0.6, seed=seed)
    tables = [
        _random_items(rng, int(rng.integers(1, 25)), 8, [chr(ord("A") + t)])
        for t in range(int(rng.integers(2, 6)))
    ]
    got, got_stats = hierarchical_merge_tables([ItemTable.from_items(t) for t in tables], config)
    got = got.to_items()

    # Reference: replay Algorithm 2 with the seed's per-pair merge.
    level_rng = np.random.default_rng(config.seed)
    current = [list(t) for t in tables]
    while len(current) > 1:
        order = level_rng.permutation(len(current))
        next_level = []
        for i in range(0, len(order) - 1, 2):
            merged, _ = reference_merge_two_tables(current[order[i]], current[order[i + 1]], config)
            next_level.append(merged)
        if len(order) % 2 == 1:
            next_level.append(current[order[-1]])
        current = next_level
    _assert_items_identical(got, current[0])
    assert got_stats.levels >= 1


def test_item_table_round_trip_preserves_everything():
    rng = np.random.default_rng(0)
    items = _random_items(rng, 30, 6, ["A", "B", "zz"])
    table = ItemTable.from_items(items)
    _assert_items_identical(table.to_items(), items)
    assert list(table.sizes) == [item.size for item in items]
    # filter keeps order and contents
    mask = table.sizes >= 2
    filtered = table.filter(mask).to_items()
    _assert_items_identical(filtered, [item for item in items if item.size >= 2])


# --------------------------------------------------------------------------
# Pruning equivalence.
# --------------------------------------------------------------------------


def _random_prune_case(rng, num_items, d=6):
    """Random candidate tuples incl. all-outlier tuples, singletons and ties."""
    lookup = {}
    items = []
    sources = ["A", "B", "C", "D", "E", "F"]
    for group in range(num_items):
        size = int(rng.integers(1, 6))
        refs = tuple(EntityRef(sources[s], group) for s in range(size))
        center = rng.normal(size=d)
        kind = rng.random()
        vectors = []
        for i, ref in enumerate(refs):
            if kind < 0.2:
                offset = rng.normal(loc=20 * (i + 1), size=d)  # all outliers
            elif kind < 0.4 and i > 0:
                vectors.append(vectors[0].copy())  # exact ties at distance 0
                lookup[ref] = vectors[-1]
                continue
            elif kind < 0.7 and i == size - 1:
                offset = rng.normal(loc=8, size=d)  # one outlier
            else:
                offset = rng.normal(scale=0.05, size=d)
            vectors.append((center + offset).astype(np.float32))
            lookup[ref] = vectors[-1]
        items.append(MergeItem(members=refs, vector=np.mean(vectors, axis=0).astype(np.float32)))
    return items, lookup


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_prune_items_matches_reference(seed, metric, store_from_lookup):
    rng = np.random.default_rng(seed)
    items, lookup = _random_prune_case(rng, int(rng.integers(0, 40)))
    config = PruningConfig(
        epsilon=float(rng.choice([0.5, 1.0, 1.4])),
        min_pts=int(rng.integers(1, 4)),
        metric=metric,
        batch_rows=int(rng.choice([1, 7, 8192])),
    )
    got = prune_item_table(ItemTable.from_items(items), store_from_lookup(lookup), config)
    want = reference_prune_items(items, lookup, config)
    _assert_items_identical(got, want)
    # untouched tuples keep the seed path's members and vector bytes
    for new_item, ref_item in zip(got, want):
        if ref_item in items:
            assert new_item.members == ref_item.members
            assert new_item.vector.tobytes() == ref_item.vector.tobytes()


def test_prune_items_all_outlier_tuples_dropped(store_from_lookup):
    lookup = {
        EntityRef("A", 0): np.asarray([0.0, 0.0], dtype=np.float32),
        EntityRef("B", 0): np.asarray([50.0, 50.0], dtype=np.float32),
        EntityRef("C", 0): np.asarray([-50.0, 90.0], dtype=np.float32),
    }
    item = MergeItem(members=tuple(sorted(lookup)), vector=np.zeros(2, dtype=np.float32))
    table = ItemTable.from_items([item])
    store = store_from_lookup(lookup)
    assert prune_item_table(table, store, PruningConfig(epsilon=0.5, min_pts=2)) == []


@pytest.mark.parametrize("seed", range(4))
def test_prune_item_table_matches_list_path(seed, store_from_lookup):
    """The flat-table pruning path returns the per-item reference's survivors."""
    rng = np.random.default_rng(200 + seed)
    items, lookup = _random_prune_case(rng, 30)
    config = PruningConfig(epsilon=1.0, min_pts=2)
    store = store_from_lookup(lookup)  # canonical per-source blocks
    got = prune_item_table(ItemTable.from_items(items), store, config)
    wanted_ref = reference_prune_items(items, store, config)
    _assert_items_identical(got, wanted_ref)


def test_prune_serial_equals_parallel_across_worker_counts(store_from_lookup):
    """Chunking is deterministic w.r.t. worker count: serial == parallel, exactly."""
    rng = np.random.default_rng(7)
    items, lookup = _random_prune_case(rng, 60)
    table, store = ItemTable.from_items(items), store_from_lookup(lookup)
    config = PruningConfig(epsilon=1.0, min_pts=2)
    serial = prune_item_table(
        table, store, config, executor=ParallelExecutor(ParallelConfig(enabled=False))
    )
    by_members = {item.members: item for item in items}
    for workers in (1, 2, 3, 5, 8):
        executor = ParallelExecutor(ParallelConfig(enabled=True, max_workers=workers))
        parallel = prune_item_table(table, store, config, executor=executor)
        _assert_items_identical(parallel, serial)
        for serial_item, parallel_item in zip(serial, parallel):
            original = by_members.get(serial_item.members)
            if original is not None:  # untouched items keep their bytes in both modes
                assert parallel_item.vector.tobytes() == original.vector.tobytes()


# --------------------------------------------------------------------------
# Kernel-level assumptions the flat engines rely on.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_batched_pairwise_distances_bitwise_per_slice(metric):
    rng = np.random.default_rng(3)
    for u in (2, 3, 5, 9):
        stacked = rng.normal(size=(11, u, 24)).astype(np.float32)
        stacked[4, 0] = 0.0  # zero rows take the cosine norm guard
        stacked[7, -1] = stacked[7, 0]  # exact duplicate rows
        batched = batched_pairwise_distances(stacked, metric)
        for t in range(stacked.shape[0]):
            assert batched[t].tobytes() == pairwise_distances(stacked[t], metric).tobytes()


def test_grouped_weighted_mean_bitwise_matches_per_group():
    """(t, s, d) axis-1 reductions must equal each slice's axis-0 reduction."""
    rng = np.random.default_rng(5)
    for s in (2, 3, 4, 7, 19):
        stacked = rng.normal(size=(9, s, 33)).astype(np.float32)
        weights = rng.integers(1, 40, size=(9, s)).astype(np.float32)
        pooled = (weights[:, :, None] * stacked).sum(axis=1)
        pooled = pooled / weights.sum(axis=1)[:, None]
        batched = normalize_rows(pooled)
        for t in range(9):
            want = weighted_mean_vector(stacked[t], weights[t])
            assert batched[t].tobytes() == want.tobytes()
