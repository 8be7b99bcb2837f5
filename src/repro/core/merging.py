"""Table-wise hierarchical merging (Algorithms 2 and 3) on flat array storage.

The merging stage treats every table as a collection of merge items
(initially one item per record). Two tables are merged by

1. finding mutual top-K neighbour pairs under a distance cap ``m`` with an
   ANN index (Eq. 1, Algorithm 3 lines 3-5),
2. unioning the paired items by transitivity (lines 6-8), and
3. carrying every unmatched item forward unchanged (lines 9-10).

Algorithm 2 then repeats the two-table merge hierarchically — random pairs of
tables, level by level — until a single integrated table remains. The merged
item's representative vector is the member-count-weighted mean of its parts
(a medoid representative is available for the design ablation).

Flat-table layout and byte-identity contract
--------------------------------------------

Internally a table of items is an :class:`ItemTable` *column store*: one
``(n, d)`` float32 vector matrix plus CSR-style member lists (``int32``
source ids into a sorted source-name tuple, ``int64`` row indices, and an
``(n + 1,)`` offset array). A two-table merge then runs as

* an integer union-find over ``np.arange(n_left + n_right)`` seeded by the
  mutual pairs,
* a single stable relabeling pass that orders output groups by the first
  occurrence of any of their members (the same order the historical
  dict-of-tuples implementation produced), and
* grouped weighted-mean representatives computed in one vectorized pass per
  distinct group size (gather → ``(t, s, d)`` → weighted sum over axis 1).

Every step is required to reproduce the historical per-item implementation
**bit for bit**: group composition, output order, member tuples and the raw
bytes of every representative vector. The per-group-size batching exists
because numpy's pairwise summation makes ``np.add.reduceat`` (sequential)
diverge from ``ndarray.sum(axis=0)`` for three or more rows, while a
``(t, s, d).sum(axis=1)`` is bit-equal to each slice's ``(s, d).sum(axis=0)``
on this platform (pinned by ``tests/core/test_flat_equivalence.py``). A
hierarchy level runs as waves of pairs, each wave four flat fan-outs
(:func:`_merge_wave`); output bytes do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from ..ann.mutual import (
    backward_rows,
    batch_invariant,
    directed_pairs,
    exact_top1_pairs,
    mutual_pairs,
    one_pass_pair,
    plan_side_index,
    row_chunks,
)
from ..arrays import csr_positions
from ..config import MergingConfig
from ..data.entity import EntityRef
from ..embedding.base import normalize_rows
from ..embedding.pooling import medoid_pool
from .parallel import ParallelExecutor, default_executor
from .representation import TableEmbeddings


@dataclass
class MergeItem:
    """A (possibly merged) item: a group of entity refs plus a representative vector."""

    members: tuple[EntityRef, ...]
    vector: np.ndarray

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class MergeStats:
    """Diagnostics collected across the hierarchy (useful for tests and docs)."""

    levels: int = 0
    pair_merges: int = 0
    matched_pairs_per_level: list[int] = field(default_factory=list)


def weighted_mean_vector(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Member-count-weighted, L2-normalized mean of representative vectors.

    This is *the* representative form of the merging stage; the pruning stage
    reuses it (with unit weights, one per surviving entity) so that pruned
    items stay consistent with the representatives later merges consume.
    """
    weights = np.asarray(weights, dtype=np.float32)
    pooled = (weights[:, None] * vectors).sum(axis=0) / float(weights.sum())
    return normalize_rows(pooled[None, :])[0]


class ItemTable:
    """Column-store view of a merge-item table.

    Attributes:
        vectors: ``(n, d)`` float32 representative matrix, row ``i`` for item ``i``.
        member_sources: ``(M,)`` int32 ids into :attr:`sources` for every member.
        member_indices: ``(M,)`` int64 source-row indices for every member.
        member_offsets: ``(n + 1,)`` int64 CSR offsets; item ``i`` owns members
            ``member_offsets[i]:member_offsets[i + 1]``.
        sources: source names, **sorted ascending** — the invariant that makes
            sorting members by ``(source_id, index)`` equal to sorting
            :class:`EntityRef` objects by ``(source, index)``.
    """

    __slots__ = ("vectors", "member_sources", "member_indices", "member_offsets", "sources")

    def __init__(
        self,
        vectors: np.ndarray,
        member_sources: np.ndarray,
        member_indices: np.ndarray,
        member_offsets: np.ndarray,
        sources: tuple[str, ...],
    ) -> None:
        self.vectors = vectors
        self.member_sources = member_sources
        self.member_indices = member_indices
        self.member_offsets = member_offsets
        self.sources = sources

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """Member count per item (the merge weights), as int64."""
        return np.diff(self.member_offsets)

    # --------------------------------------------------------- constructors
    @classmethod
    def empty(cls, dimension: int = 0) -> "ItemTable":
        return cls(
            np.zeros((0, dimension), dtype=np.float32),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            (),
        )

    @classmethod
    def from_items(cls, items: Sequence[MergeItem]) -> "ItemTable":
        """Pack a list of merge items into flat columns (vectors are stacked).

        Item vectors must be float32 — the encoder contract every pipeline
        producer honors; other dtypes are cast here (the flat layout stores
        one homogeneous matrix, so the historical accident of per-item mixed
        dtypes surviving a merge is not supported).
        """
        n = len(items)
        if n == 0:
            return cls.empty()
        vectors = np.stack([item.vector for item in items]).astype(np.float32, copy=False)
        sources = sorted({ref.source for item in items for ref in item.members})
        source_id = {name: i for i, name in enumerate(sources)}
        counts = np.fromiter((len(item.members) for item in items), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        member_sources = np.fromiter(
            (source_id[ref.source] for item in items for ref in item.members),
            dtype=np.int32,
            count=total,
        )
        member_indices = np.fromiter(
            (ref.index for item in items for ref in item.members), dtype=np.int64, count=total
        )
        return cls(vectors, member_sources, member_indices, offsets, tuple(sources))

    @classmethod
    def from_embeddings(cls, embeddings: TableEmbeddings) -> "ItemTable":
        """Singleton item per record, sharing the embedding matrix (no copy)."""
        n = len(embeddings.refs)
        if n == 0:
            return cls.empty()
        vectors = np.ascontiguousarray(np.asarray(embeddings.vectors, dtype=np.float32))
        sources = sorted({ref.source for ref in embeddings.refs})
        source_id = {name: i for i, name in enumerate(sources)}
        member_sources = np.fromiter(
            (source_id[ref.source] for ref in embeddings.refs), dtype=np.int32, count=n
        )
        member_indices = np.fromiter(
            (ref.index for ref in embeddings.refs), dtype=np.int64, count=n
        )
        return cls(vectors, member_sources, member_indices, np.arange(n + 1, dtype=np.int64), tuple(sources))

    # --------------------------------------------------------------- views
    def member_refs(self) -> list[EntityRef]:
        """All member refs in storage order (flat, CSR-aligned)."""
        sources = self.sources
        return [
            EntityRef(sources[sid], int(idx))
            for sid, idx in zip(self.member_sources.tolist(), self.member_indices.tolist())
        ]

    def to_items(self) -> list[MergeItem]:
        """Materialize the thin :class:`MergeItem` list view (vectors are row views)."""
        refs = self.member_refs()
        offsets = self.member_offsets.tolist()
        return [
            MergeItem(members=tuple(refs[offsets[i] : offsets[i + 1]]), vector=self.vectors[i])
            for i in range(len(self))
        ]

    def filter(self, mask: np.ndarray) -> "ItemTable":
        """Row-subset of the table (items where ``mask`` is True, order kept)."""
        mask = np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(mask)
        counts = self.sizes[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pos = csr_positions(self.member_offsets[rows], counts)
        return ItemTable(
            self.vectors[rows],
            self.member_sources[pos],
            self.member_indices[pos],
            offsets,
            self.sources,
        )


def _union_sources(left: ItemTable, right: ItemTable) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Merged sorted source table plus per-side id remap arrays."""
    union = sorted(set(left.sources) | set(right.sources))
    index = {name: i for i, name in enumerate(union)}
    left_map = np.fromiter((index[s] for s in left.sources), dtype=np.int32, count=len(left.sources))
    right_map = np.fromiter((index[s] for s in right.sources), dtype=np.int32, count=len(right.sources))
    return tuple(union), left_map, right_map


def bucketed_weighted_mean(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalized weighted means of one same-size bucket — the bit-critical op.

    ``stacked`` is ``(t, s, d)`` (``t`` groups of ``s`` rows), ``weights`` is
    ``(t, s)`` float32. Each output row is bit-identical to
    :func:`weighted_mean_vector` on that group's ``(s, d)`` slice: an axis-1
    reduction of a 3-d gather equals each slice's axis-0 reduction on this
    platform, while e.g. ``np.add.reduceat`` (sequential) does **not** for
    three or more rows (see the module docstring's byte-identity notes). Both
    the merging and the pruning engines funnel through this single helper so
    the equality is maintained — and pinned by the property tests — in one
    place.
    """
    pooled = (weights[:, :, None] * stacked).sum(axis=1)
    pooled = pooled / weights.sum(axis=1)[:, None]
    return normalize_rows(pooled)


def _grouped_mean_vectors(
    out_vectors: np.ndarray,
    vectors: np.ndarray,
    weights: np.ndarray,
    group_of_node: np.ndarray,
    nodes_in_group_order: np.ndarray,
    group_node_counts: np.ndarray,
) -> None:
    """Weighted-mean representatives for every multi-node group, vectorized.

    Buckets groups by node count; each bucket reduces through
    :func:`bucketed_weighted_mean`, bit-identical to the per-group
    ``(weights[:, None] * stacked).sum(axis=0)`` the historical implementation
    computed.
    """
    groups_sorted = group_of_node[nodes_in_group_order]
    node_sizes = group_node_counts[groups_sorted]
    for s in np.unique(node_sizes):
        in_bucket = node_sizes == s
        nodes_s = nodes_in_group_order[in_bucket]
        t = nodes_s.shape[0] // int(s)
        stacked = vectors[nodes_s].reshape(t, int(s), vectors.shape[1])
        bucket_weights = weights[nodes_s].reshape(t, int(s))
        out_vectors[groups_sorted[in_bucket][:: int(s)]] = bucketed_weighted_mean(
            stacked, bucket_weights
        )


def merge_index_kwargs(config: MergingConfig) -> dict:
    """The per-merge ANN index kwargs a :class:`MergingConfig` implies."""
    return {
        "hnsw_max_degree": config.hnsw_max_degree,
        "hnsw_ef_construction": config.hnsw_ef_construction,
        "hnsw_ef_search": config.hnsw_ef_search,
        "seed": config.seed,
    }


def plan_merge_index(
    vectors: np.ndarray,
    config: MergingConfig,
    cache=None,  # bench compat: item 1 deletes
):
    """:func:`~repro.ann.mutual.plan_side_index` for one side of a merge under ``config``.

    Every merge index and the serving session's query index are planned
    here, so their index builds agree bit for bit.
    """
    return plan_side_index(
        vectors,
        metric=config.metric,
        backend=config.index,
        brute_force_limit=config.brute_force_limit,
        index_kwargs=merge_index_kwargs(config),
        cache=cache,  # bench compat: item 1 deletes
    )


@default_executor
def merge_item_tables(
    left: ItemTable,
    right: ItemTable,
    config: MergingConfig,
    *,
    representative: str = "mean",
    executor: ParallelExecutor | None = None,
) -> tuple[ItemTable, int]:
    """Algorithm 3 on flat tables: merge two item tables into one.

    ``executor`` fans the merge's two builds and its query chunks out (see
    :func:`_merge_wave`); without one a default executor serves the call and
    is closed with it.

    Returns:
        ``(merged_table, num_matched_pairs)`` — the merged table and how many
        mutual pairs were accepted (diagnostic).
    """
    return _merge_wave([(left, right)], config, executor, representative=representative)[0]


def _merge_wave(
    pairs: "Sequence[tuple[ItemTable, ItemTable]]",
    config: MergingConfig,
    executor: ParallelExecutor,
    *,
    representative: str,
    cache=None,  # bench compat: item 1 deletes
) -> list[tuple[ItemTable, int]]:
    """Algorithm 3 for a wave of independent pairs, as four flat fan-outs.

    Build → forward → trimmed backward → finish, each one ``executor.map``
    issued from this thread (no task ever submits to the bounded pool), so a
    lone pair still builds its two graphs and answers its query chunks on
    every worker; an exact K = 1 pair builds nothing and is one forward task.
    Each ``build()`` and ``index.query()`` is the call the serial merge makes
    on the same rows, or on a subset of them where the backend is batch
    invariant — output bytes do not depend on the workers.
    """
    results = [(left if len(left) else right, 0) for left, right in pairs]  # kept where a side is empty
    slots = [slot for slot, (left, right) in enumerate(pairs) if len(left) and len(right)]
    lefts, rights = [pairs[slot][0] for slot in slots], [pairs[slot][1] for slot in slots]
    one_pass = [
        j for j, (left, right) in enumerate(zip(lefts, rights))
        if one_pass_pair(left.vectors, right.vectors, config.k, config.index, config.brute_force_limit)
    ]
    scanned = [j for j in range(len(slots)) if j not in one_pass]
    # (1) build, ``b`` then ``a`` per two-scan pair; only the bodies fan out.
    plans = [
        plan_merge_index(side.vectors, config, cache)  # bench compat: item 1 deletes
        for j in scanned for side in (rights[j], lefts[j])
    ]
    indexes = executor.map(lambda plan: plan[1](), plans)
    backends = [plan[0] for plan in plans]

    def directed(indexes: list, backends: list, tables: list, rows: list, extra=()) -> list[list]:
        """Per pair, the results of its tasks — one flat map over ``extra`` and all row chunks."""
        tasks = [*extra] + [
            (j, partial(directed_pairs, index, tables[j].vectors, config.k, config.m, chunk))
            for j, index, backend, asked in zip(scanned, indexes, backends, rows)
            for chunk in row_chunks(asked, executor.workers if batch_invariant(backend) else 1)
        ]
        found = executor.map(lambda task: task[1](), tasks)
        return [[f for (i, _), f in zip(tasks, found) if i == j] for j in range(len(slots))]

    # (2) forward: each one-pass pair whole, and a-rows against index_b.
    # (3) backward: only the b-rows a forward answer returned, against index_a.
    top1 = partial(exact_top1_pairs, max_distance=config.m, metric=config.metric)
    single = [(j, partial(top1, lefts[j].vectors, rights[j].vectors)) for j in one_pass]
    forward = directed(indexes[0::2], backends[0::2], lefts, [len(lefts[j]) for j in scanned], single)
    asked = [
        backward_rows(np.concatenate(forward[j]), backend, len(rights[j]))
        for j, backend in zip(scanned, backends[1::2])
    ]
    backward = directed(indexes[1::2], backends[1::2], rights, asked)
    del indexes  # the union needs no index: free them before it allocates

    # (4) finish: intersection, distances, order (one-pass pairs have them), union-find.
    def finish(j: int) -> tuple[ItemTable, int]:
        left, right = lefts[j], rights[j]
        found = forward[j][0] if j in one_pass else mutual_pairs(
            forward[j], backward[j], left.vectors, right.vectors, config.metric
        )
        return merge_tables_with_pairs(left, right, found, representative=representative)[0], len(found)

    for slot, result in zip(slots, executor.map(finish, range(len(slots)))):
        results[slot] = result
    return results


def merge_tables_with_pairs(
    left: ItemTable,
    right: ItemTable,
    pairs: "Sequence",
    *,
    representative: str = "mean",
) -> tuple[ItemTable, np.ndarray]:
    """Union, relabel and materialize a two-table merge from given mutual pairs.

    The post-pair half of :func:`merge_item_tables`. ``pairs`` must be the
    :class:`~repro.ann.mutual.MutualPair` list in its canonical
    ``(distance, left, right)`` lexsort order — pair order drives the unions.

    Returns:
        ``(merged_table, node_of_group)`` where ``node_of_group[g]`` is the
        first concatenated node (left rows first, then right rows) of output
        group ``g``.
    """
    n_left, n_right = len(left), len(right)
    n = n_left + n_right

    # Integer union-find over np.arange(n): left items are nodes [0, n_left),
    # right items are nodes [n_left, n). Unions follow pair order (matched
    # right root attached under the left root), exactly like the historical
    # dict-of-tuples implementation — component membership and the
    # first-occurrence output order below are what byte-identity relies on.
    parent = list(range(n))
    for pair in pairs:
        a = pair.left
        while parent[a] != a:
            parent[a], a = parent[parent[a]], parent[a]
        b = n_left + pair.right
        while parent[b] != b:
            parent[b], b = parent[parent[b]], parent[b]
        if a != b:
            parent[b] = a
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            break
        roots = hopped

    # Relabel components in order of first occurrence (scan order: all left
    # items by position, then all right items) — the dict insertion order of
    # the historical implementation.
    unique_roots, first_seen, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty(len(unique_roots), dtype=np.int64)
    rank[np.argsort(first_seen, kind="stable")] = np.arange(len(unique_roots))
    group = rank[inverse]
    num_groups = len(unique_roots)
    group_node_counts = np.bincount(group, minlength=num_groups)

    sources, left_map, right_map = _union_sources(left, right)
    vectors = np.concatenate([left.vectors, right.vectors])
    node_member_counts = np.concatenate([left.sizes, right.sizes])
    node_weights = node_member_counts.astype(np.float32)
    node_member_starts = np.concatenate(
        [left.member_offsets[:-1], right.member_offsets[:-1] + left.member_sources.shape[0]]
    )
    member_sources_cat = np.concatenate(
        [left_map[left.member_sources], right_map[right.member_sources]]
    )
    member_indices_cat = np.concatenate([left.member_indices, right.member_indices])

    node_of_group = np.empty(num_groups, dtype=np.int64)
    node_of_group[group[::-1]] = np.arange(n - 1, -1, -1)  # first node of each group
    singles = np.flatnonzero(group_node_counts == 1)
    multis = np.flatnonzero(group_node_counts > 1)

    # ------------------------------------------------- representative vectors
    out_vectors = np.empty((num_groups, vectors.shape[1]), dtype=np.float32)
    out_vectors[singles] = vectors[node_of_group[singles]]
    if multis.size:
        node_order = np.argsort(group, kind="stable")
        multi_nodes = node_order[group_node_counts[group[node_order]] > 1]
        if representative == "medoid":
            bounds = np.concatenate(
                [[0], np.flatnonzero(np.diff(group[multi_nodes])) + 1, [multi_nodes.shape[0]]]
            )
            for start, stop in zip(bounds[:-1], bounds[1:]):
                nodes = multi_nodes[start:stop]
                pooled = medoid_pool(vectors[nodes])
                out_vectors[group[nodes[0]]] = normalize_rows(pooled[None, :])[0]
        else:
            _grouped_mean_vectors(
                out_vectors, vectors, node_weights, group, multi_nodes, group_node_counts
            )

    # --------------------------------------------------------- member lists
    if multis.size:
        multi_counts = node_member_counts[multi_nodes]
        src_pos = csr_positions(node_member_starts[multi_nodes], multi_counts)
        stream_group = np.repeat(group[multi_nodes], multi_counts)
        stream_sid = member_sources_cat[src_pos]
        stream_idx = member_indices_cat[src_pos]
        order = np.lexsort((stream_idx, stream_sid, stream_group))
        stream_group = stream_group[order]
        stream_sid = stream_sid[order]
        stream_idx = stream_idx[order]
        keep = np.ones(order.shape[0], dtype=bool)
        keep[1:] = (
            (stream_group[1:] != stream_group[:-1])
            | (stream_sid[1:] != stream_sid[:-1])
            | (stream_idx[1:] != stream_idx[:-1])
        )
        stream_group = stream_group[keep]
        stream_sid = stream_sid[keep]
        stream_idx = stream_idx[keep]
        multi_member_counts = np.bincount(stream_group, minlength=num_groups)
    else:
        stream_sid = np.zeros(0, dtype=np.int32)
        stream_idx = np.zeros(0, dtype=np.int64)
        multi_member_counts = np.zeros(num_groups, dtype=np.int64)

    out_counts = np.where(
        group_node_counts == 1, node_member_counts[node_of_group], multi_member_counts
    )
    out_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    out_member_sources = np.empty(int(out_offsets[-1]), dtype=np.int32)
    out_member_indices = np.empty(int(out_offsets[-1]), dtype=np.int64)

    single_nodes = node_of_group[singles]
    single_src = csr_positions(node_member_starts[single_nodes], node_member_counts[single_nodes])
    single_dst = csr_positions(out_offsets[singles], node_member_counts[single_nodes])
    out_member_sources[single_dst] = member_sources_cat[single_src]
    out_member_indices[single_dst] = member_indices_cat[single_src]
    if multis.size:
        multi_dst = csr_positions(out_offsets[multis], multi_member_counts[multis])
        out_member_sources[multi_dst] = stream_sid
        out_member_indices[multi_dst] = stream_idx

    merged = ItemTable(out_vectors, out_member_sources, out_member_indices, out_offsets, sources)
    return merged, node_of_group


@default_executor
def hierarchical_merge_tables(
    tables: list[ItemTable],
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache=None,  # bench compat: item 1 deletes
) -> tuple[ItemTable, MergeStats]:
    """Algorithm 2 on flat tables: merge all tables hierarchically until one remains.

    Tables are randomly paired at every level (seeded by ``config.seed``);
    with an odd number of tables the leftover table passes to the next level
    untouched. A level runs as waves of at most ``executor.workers`` pairs,
    each wave four flat fan-outs (:func:`_merge_wave`), so both a wide level
    and a lone pair keep every worker busy. Inside one hierarchy every table
    is indexed exactly once, by the one merge that consumes it.
    """
    stats = MergeStats()
    rng = np.random.default_rng(config.seed)
    current = list(tables)
    if not current:
        return ItemTable.empty(), stats
    while len(current) > 1:
        stats.levels += 1
        order = rng.permutation(len(current))
        pairs = [(current[order[i]], current[order[i + 1]]) for i in range(0, len(order) - 1, 2)]
        next_level: list[ItemTable] = []
        matched_this_level = 0
        # Waves of at most ``workers`` pairs bound how many indexes are alive.
        for start in range(0, len(pairs), executor.workers):
            for merged, matched in _merge_wave(
                pairs[start : start + executor.workers],
                config,
                executor,
                representative=representative,
                cache=cache,  # bench compat: item 1 deletes
            ):
                next_level.append(merged)
                matched_this_level += matched
        stats.pair_merges += len(pairs)
        stats.matched_pairs_per_level.append(matched_this_level)
        if len(order) % 2 == 1:
            next_level.append(current[order[-1]])
        current = next_level
    return current[0], stats
