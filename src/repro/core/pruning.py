"""Density-based pruning (Algorithm 4 and Definitions 3-5), batched.

Hierarchical merging only ever looks at the two tables currently being
merged, so a tuple built up over several levels can drag along an outlier
(Figure 4). The pruning stage classifies each tuple's members as core,
reachable, or outlier entities using DBSCAN-style density rules on euclidean
distance (the paper's, Section IV-A) and removes the outliers; tuples left
with fewer than two members are dropped entirely.

Vectorized layout and byte-identity contract
--------------------------------------------

:func:`classify_entities` remains the single-tuple reference implementation;
the production path (:func:`prune_item_table`) batches every candidate's
members into one contiguous matrix, buckets candidates by member count
``u``, and classifies each bucket with one
:func:`~repro.ann.distances.batched_pairwise_distances` call and boolean
masks — no per-tuple Python loop. Because every batched slice is bit-equal
to the per-tuple kernel (see the batched kernel's docstring), the surviving
member sets and the rebuilt representative vectors are identical to the
historical per-item path — ``tests/core/test_flat_equivalence.py`` pins this
on randomized inputs, and the result is independent of how candidates are
chunked across workers.

:data:`BATCH_ROWS` caps how many member rows one *classification block*
gathers, bounding the per-block ``(t, u, u)`` distance allocations for large
candidate sets. Any cap gives the same bytes (blocking never changes a
tuple's arithmetic). It is not a global memory bound: the flat member matrix
of a chunk is gathered up front, and a single tuple with more than
``BATCH_ROWS`` members still classifies as one (1, u, u) block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ann.distances import batched_pairwise_distances, pairwise_distances
from ..config import PruningConfig
from ..data.entity import EntityRef
from .merging import ItemTable, MergeItem, bucketed_weighted_mean
from .parallel import ParallelExecutor, default_executor, partition
from .representation import EmbeddingStore

#: Member rows one classification block gathers at most (see the module docs).
BATCH_ROWS = 8192


@dataclass
class EntityClassification:
    """Outcome of Algorithm 4 for one data item (indices into the item's members)."""

    core: list[int] = field(default_factory=list)
    reachable: list[int] = field(default_factory=list)
    outliers: list[int] = field(default_factory=list)


def classify_entities(vectors: np.ndarray, epsilon: float, min_pts: int) -> EntityClassification:
    """Classify the members of one data item (Algorithm 4).

    This is the single-tuple reference implementation; the batched path in
    :func:`prune_item_table` reproduces it bit for bit via boolean masks.

    Args:
        vectors: ``(u, d)`` member embeddings of the data item.
        epsilon: neighbourhood radius ε.
        min_pts: neighbours (including self) required to be a core entity.

    Returns:
        :class:`EntityClassification` of member indices.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    u = vectors.shape[0]
    if u == 0:
        return EntityClassification()
    distances = pairwise_distances(vectors, "euclidean")
    neighbor_masks = distances <= epsilon
    neighbor_counts = neighbor_masks.sum(axis=1)
    core = [i for i in range(u) if neighbor_counts[i] >= min_pts]
    core_set = set(core)
    classification = EntityClassification(core=core)
    for i in range(u):
        if i in core_set:
            continue
        neighbors = np.flatnonzero(neighbor_masks[i])
        if any(int(j) in core_set for j in neighbors if int(j) != i):
            classification.reachable.append(i)
        else:
            classification.outliers.append(i)
    return classification


def _classify_members(
    member_matrix: np.ndarray, offsets: np.ndarray, config: PruningConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Algorithm 4 over the flat member matrix of many candidates.

    Args:
        member_matrix: ``(M, d)`` concatenated member vectors of all candidates.
        offsets: ``(C + 1,)`` CSR offsets; candidate ``i`` owns rows
            ``offsets[i]:offsets[i + 1]``.
        config: pruning settings.

    Returns:
        ``(keep, keep_counts)`` — a boolean mask over the ``M`` member rows
        (core or reachable members) and the per-candidate survivor counts.
    """
    sizes = np.diff(offsets)
    keep = np.zeros(member_matrix.shape[0], dtype=bool)
    keep_counts = np.zeros(len(sizes), dtype=np.int64)
    for u in np.unique(sizes):
        u = int(u)
        if u == 0:
            continue
        items_u = np.flatnonzero(sizes == u)
        block_items = max(1, BATCH_ROWS // u)
        for start in range(0, len(items_u), block_items):
            block = items_u[start : start + block_items]
            flat_positions = (offsets[block][:, None] + np.arange(u)[None, :]).reshape(-1)
            stacked = np.asarray(member_matrix[flat_positions], dtype=np.float32)
            stacked = stacked.reshape(len(block), u, member_matrix.shape[1])
            distances = batched_pairwise_distances(stacked)
            neighbor_masks = distances <= config.epsilon
            core = neighbor_masks.sum(axis=2) >= config.min_pts
            reachable = ~core & (neighbor_masks & core[:, None, :]).any(axis=2)
            keep_block = core | reachable
            keep[flat_positions] = keep_block.reshape(-1)
            keep_counts[block] = keep_block.sum(axis=1)
    return keep, keep_counts


def _rebuild_vectors(
    member_matrix: np.ndarray, kept_positions: list[np.ndarray]
) -> list[np.ndarray]:
    """Weighted-mean representatives for partially pruned candidates, batched.

    Reproduces ``weighted_mean_vector(survivors, ones)`` per candidate bit for
    bit: candidates are bucketed by survivor count and each bucket reduces
    through :func:`~repro.core.merging.bucketed_weighted_mean` (unit weights),
    the shared kernel that carries the byte-identity argument.
    """
    vectors: list[np.ndarray | None] = [None] * len(kept_positions)
    if not kept_positions:
        return []
    counts = np.fromiter((len(p) for p in kept_positions), dtype=np.int64, count=len(kept_positions))
    for s in np.unique(counts):
        s = int(s)
        bucket = np.flatnonzero(counts == s)
        positions = np.concatenate([kept_positions[i] for i in bucket])
        stacked = member_matrix[positions].reshape(len(bucket), s, member_matrix.shape[1])
        weights = np.ones((len(bucket), s), dtype=np.float32)
        normalized = bucketed_weighted_mean(stacked, weights)
        for row, i in enumerate(bucket):
            vectors[i] = normalized[row].astype(np.float32)
    return vectors  # type: ignore[return-value]


def _assemble_survivors(
    candidates: list[MergeItem],
    member_matrix: np.ndarray,
    offsets: np.ndarray,
    config: PruningConfig,
) -> list[MergeItem]:
    """Classify a gathered candidate chunk and build its surviving items."""
    keep, keep_counts = _classify_members(member_matrix, offsets, config)
    survivors: list[MergeItem] = []
    partial_slots: list[int] = []
    partial_members: list[tuple[EntityRef, ...]] = []
    partial_positions: list[np.ndarray] = []
    for i, item in enumerate(candidates):
        count = int(keep_counts[i])
        if count < 2:
            continue
        if count == item.size:
            survivors.append(item)  # untouched: members and vector as merged
            continue
        start = int(offsets[i])
        kept_local = np.flatnonzero(keep[start : int(offsets[i + 1])])
        partial_slots.append(len(survivors))
        partial_members.append(tuple(item.members[j] for j in kept_local.tolist()))
        partial_positions.append(start + kept_local)
        survivors.append(item)  # placeholder, replaced below
    rebuilt = _rebuild_vectors(member_matrix, partial_positions)
    for slot, members, vector in zip(partial_slots, partial_members, rebuilt):
        survivors[slot] = MergeItem(members=members, vector=vector)
    return survivors


@default_executor
def prune_item_table(
    table: ItemTable,
    store: EmbeddingStore,
    config: PruningConfig,
    *,
    executor: ParallelExecutor | None = None,
) -> list[MergeItem]:
    """Prune candidates straight off a flat :class:`~repro.core.merging.ItemTable`.

    Member *row resolution* runs through :meth:`EmbeddingStore.member_rows`
    as pure integer arithmetic (no per-member lookup), and each chunk gathers
    its member vectors out of the store's blocks with
    :meth:`EmbeddingStore.take`, block by block. Candidate ``EntityRef`` /
    :class:`MergeItem` objects are still materialized — candidates are a small
    fraction of the table — and the surviving tuples come back as item views.
    Only items with >= 2 members are candidates (singletons are not
    predictions); survivors keep their relative order and exactly the core and
    reachable members :func:`classify_entities` finds in each tuple alone.
    With a parallel executor the candidates split into contiguous chunks;
    classification is chunk-invariant, so the output does not depend on it.
    """
    candidates = table.filter(table.sizes >= 2)
    if not config.enabled:
        return candidates.to_items()
    if len(candidates) == 0:
        return []
    rows = store.member_rows(candidates.sources, candidates.member_sources, candidates.member_indices)
    refs = candidates.member_refs()
    if executor.is_parallel:
        bounds = _chunk_bounds(len(candidates), executor.workers * 2)
    else:
        bounds = [(0, len(candidates))]
    mapped = executor.map(
        lambda chunk_bounds: _prune_table_chunk(
            candidates, store, rows, refs, chunk_bounds, config
        ),
        bounds,
    )
    return [item for chunk_result in mapped for item in chunk_result]


def _chunk_bounds(num_items: int, num_parts: int) -> list[tuple[int, int]]:
    """Contiguous (first, last) item ranges, split by :func:`partition`.

    Chunking never changes a slice's arithmetic, so the output is the same
    for every worker count; the serial == parallel equivalence tests pin it.
    """
    return [(chunk[0], chunk[-1] + 1) for chunk in partition(range(num_items), num_parts)]


def _prune_table_chunk(
    candidates: ItemTable,
    store: EmbeddingStore,
    rows: np.ndarray,
    refs: list[EntityRef],
    bounds: tuple[int, int],
    config: PruningConfig,
) -> list[MergeItem]:
    """Prune one contiguous candidate range ``[first, last)`` of the flat table."""
    first, last = bounds
    lo, hi = int(candidates.member_offsets[first]), int(candidates.member_offsets[last])
    chunk_offsets = candidates.member_offsets[first : last + 1] - lo
    member_matrix = store.take(rows[lo:hi])
    chunk_items = [
        MergeItem(members=tuple(refs[lo + o0 : lo + o1]), vector=candidates.vectors[first + i])
        for i, (o0, o1) in enumerate(zip(chunk_offsets[:-1].tolist(), chunk_offsets[1:].tolist()))
    ]
    return _assemble_survivors(chunk_items, member_matrix, chunk_offsets, config)
