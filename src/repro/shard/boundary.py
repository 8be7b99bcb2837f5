"""Cross-shard boundary resolution: exact mutual pairs from per-shard queries.

Merging shards in isolation cannot be byte-identical to the unsharded merge:
a row's true nearest neighbour may live in another shard, and an ANN graph
built over one shard's rows answers differently than the graph over the full
table. This module therefore keeps the *index* global and decomposes the
*query* workload by owner group instead:

1. Both directed top-K passes of :func:`repro.ann.mutual.mutual_top_k` are
   split by the query side's owner array. Batch-invariant backends (HNSW,
   LSH — pinned per-row by the serving-plane tests) answer each group's rows
   bit-identically to the whole-batch call, so the union of per-group
   directed pair arrays equals the global directed set exactly: query rows
   are disjoint across groups and :func:`~repro.ann.mutual._top_k_pair_array`
   dedups per query row only. The brute-force backend is *not* batch
   invariant (GEMM vs GEMV last-ulp), so directions it answers stay
   whole-batch in the parent; if neither direction can be decomposed the
   classic ``mutual_top_k`` runs unchanged.
2. The boundary pass intersects the forward union with the swapped backward
   union — one structured-dtype ``intersect1d`` over all shards' candidate
   pairs at once, which is precisely the cross-shard stitch: a mutual pair
   whose sides live in different shards (or in the spill set) survives here
   exactly as it would have in the monolithic pass.
3. Distances and ordering are recomputed verbatim from ``mutual_top_k``'s
   tail (one ``paired_distances`` call, the ``(distance, left, right)``
   lexsort), so the returned :class:`~repro.ann.mutual.MutualPair` list is
   the unsharded list, element for element.

Parallel dispatch: both full-side indexes are built once in the parent, and
the owner groups of a direction fan out over the executor's thread pool
against that shared index, returning small ``(p, 2)`` pair arrays.
"""

from __future__ import annotations

import numpy as np

from ..ann.brute_force import BruteForceIndex
from ..ann.cache import IndexCache, index_params_key
from ..ann.engine import query_rows
from ..ann.hnsw import HNSWIndex
from ..ann.lsh import LSHIndex
from ..ann.mutual import MutualPair, _top_k_pair_array, create_index, mutual_top_k, resolve_backend
from ..config import MergingConfig
from ..core.merging import merge_index_kwargs
from ..core.parallel import ParallelExecutor

_BACKEND_CLASSES = {"brute-force": BruteForceIndex, "hnsw": HNSWIndex, "lsh": LSHIndex}


def _batch_invariant(resolved_backend: str) -> bool:
    """Whether a resolved backend answers each query row independently of the batch."""
    cls = _BACKEND_CLASSES.get(resolved_backend)
    return bool(getattr(cls, "batch_invariant", False))


def _build_index(
    vectors: np.ndarray,
    resolved_backend: str,
    config: MergingConfig,
    cache: IndexCache | None,
):
    """Build (or fetch) a full-side index exactly like ``mutual_top_k``'s build_side.

    Same ``create_index`` kwargs, same cache ``params_key`` — so a sharded
    merge and an unsharded merge sharing one cache interchange hits freely.
    """
    kwargs = merge_index_kwargs(config)

    def build():
        return create_index(
            resolved_backend,
            config.metric,
            size_hint=vectors.shape[0],
            brute_force_limit=config.brute_force_limit,
            **kwargs,
        ).build(vectors)

    if cache is None:
        return build()
    params_key = index_params_key(resolved_backend, config.metric, kwargs)
    return cache.get_or_build(vectors, build, params_key=params_key)


def directed_pairs_for_rows(
    index, queries: np.ndarray, rows: np.ndarray, k: int, max_distance: float
) -> np.ndarray:
    """One owner group's directed top-K pairs, labelled with global query rows.

    ``queries`` are the group's gathered query vectors and ``rows`` their
    global row ids (ascending). Per-group output is exactly the global
    :func:`~repro.ann.mutual._top_k_pair_array` restricted to these rows:
    the keep mask, the ``np.unique`` dedup (per query row — groups are
    disjoint) and the ``(query_row, index_row)`` sort all commute with the
    row restriction when the index answers are batch invariant.
    """
    indices, distances = query_rows(index, queries, k)
    keep = (indices >= 0) & np.isfinite(distances) & (distances <= max_distance)
    query_ids = np.broadcast_to(np.asarray(rows, dtype=np.int64)[:, None], indices.shape)[keep]
    pairs = np.stack([query_ids, indices[keep]], axis=1)
    return np.unique(pairs, axis=0)


def _owner_groups(owners: np.ndarray) -> list[np.ndarray]:
    """Row-id arrays per present owner (ascending owner id; spill rides last)."""
    return [np.flatnonzero(owners == owner) for owner in np.unique(owners)]


def _directed_union(
    executor: ParallelExecutor,
    index,
    query_vectors: np.ndarray,
    owners: np.ndarray,
    config: MergingConfig,
) -> np.ndarray:
    """One direction's full directed pair set, unioned over owner groups."""
    chunks = executor.map(
        lambda rows: directed_pairs_for_rows(
            index, query_vectors[rows], rows, config.k, config.m
        ),
        _owner_groups(owners),
    )
    real = [chunk for chunk in chunks if chunk.size]
    if not real:
        return np.zeros((0, 2), dtype=np.int64)
    return np.concatenate(real)


def sharded_mutual_pairs(
    vectors_a: np.ndarray,
    vectors_b: np.ndarray,
    owners_a: np.ndarray,
    owners_b: np.ndarray,
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    cache: IndexCache | None = None,
) -> list[MutualPair]:
    """The unsharded :func:`~repro.ann.mutual.mutual_top_k` list, computed shard-wise.

    Splits each batch-invariant direction's query workload by owner group,
    unions the per-group directed pairs, and stitches cross-shard mutuals
    with one global intersection — byte-identical output (same pairs, same
    distances, same order) for any owner assignment.
    """
    if vectors_a.shape[0] == 0 or vectors_b.shape[0] == 0:
        return []
    executor = executor or ParallelExecutor()
    resolved_b = resolve_backend(config.index, vectors_b.shape[0], config.brute_force_limit)
    resolved_a = resolve_backend(config.index, vectors_a.shape[0], config.brute_force_limit)
    decompose_forward = _batch_invariant(resolved_b)  # a-rows query the b-index
    decompose_backward = _batch_invariant(resolved_a)  # b-rows query the a-index
    if not decompose_forward and not decompose_backward:
        # Both sides resolve to a batch-shape-sensitive backend (brute force):
        # per-group queries could drift in the last ulp, so run the classic
        # whole-batch path — the sharded result is *defined* as its output.
        return mutual_top_k(
            vectors_a,
            vectors_b,
            k=config.k,
            max_distance=config.m,
            metric=config.metric,
            backend=config.index,
            brute_force_limit=config.brute_force_limit,
            index_kwargs=merge_index_kwargs(config),
            cache=cache,
        )

    # Both sides are built here, in mutual_top_k's order (b first, then a)
    # against the shared cache.
    index_b = _build_index(vectors_b, resolved_b, config, cache)
    index_a = _build_index(vectors_a, resolved_a, config, cache)
    if decompose_forward:
        forward = _directed_union(executor, index_b, vectors_a, owners_a, config)
    else:
        forward = _top_k_pair_array(index_b, vectors_a, config.k, config.m)
    if decompose_backward:
        backward = _directed_union(executor, index_a, vectors_b, owners_b, config)
    else:
        backward = _top_k_pair_array(index_a, vectors_b, config.k, config.m)

    # ------------------------------------------------ cross-shard stitch
    # Verbatim mutual_top_k tail: structured-row intersection, one exact
    # paired-distance pass, (distance, left, right) lexsort.
    pair_dtype = np.dtype([("left", np.int64), ("right", np.int64)])
    forward_view = np.ascontiguousarray(forward).view(pair_dtype).reshape(-1)
    backward_view = np.ascontiguousarray(backward[:, ::-1]).view(pair_dtype).reshape(-1)
    mutual = np.intersect1d(forward_view, backward_view, assume_unique=True)
    if mutual.size == 0:
        return []
    lefts = mutual["left"]
    rights = mutual["right"]
    from ..ann.distances import paired_distances

    dists = paired_distances(vectors_a[lefts], vectors_b[rights], config.metric)
    order = np.lexsort((rights, lefts, dists))
    return [MutualPair(int(lefts[i]), int(rights[i]), float(dists[i])) for i in order]
