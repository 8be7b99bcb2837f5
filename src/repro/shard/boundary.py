"""Cross-shard boundary resolution: exact mutual pairs from per-shard queries.

Merging shards in isolation cannot be byte-identical to the unsharded merge:
a row's true nearest neighbour may live in another shard, and an ANN graph
built over one shard's rows answers differently than the graph over the full
table. This module therefore keeps the *index* global and decomposes the
*query* workload by owner group instead:

1. Both directed top-K passes of :func:`repro.ann.mutual.mutual_top_k` are
   split by the query side's owner array. The batch-invariant backend (HNSW,
   pinned per-row by the serving-plane tests) answers each group's rows
   bit-identically to the whole-batch call, so the union of per-group
   directed pair arrays equals the global directed set exactly: query rows
   are disjoint across groups and :func:`~repro.ann.mutual.directed_pairs`
   dedups per query row only. The brute-force backend is *not* batch
   invariant (GEMM vs GEMV last-ulp), so directions it answers stay
   whole-batch in the parent.
2. The boundary pass intersects the forward union with the swapped backward
   union — one structured-dtype ``intersect1d`` over all shards' candidate
   pairs at once, which is precisely the cross-shard stitch: a mutual pair
   whose sides live in different shards (or in the spill set) survives here
   exactly as it would have in the monolithic pass.
3. Distances and ordering come from ``mutual_top_k``'s own tail
   (:func:`repro.ann.mutual.mutual_pairs`), so the returned
   :class:`~repro.ann.mutual.MutualPair` list is the unsharded list, element
   for element.

Parallel dispatch: both full-side indexes are built once in the parent, and
the owner groups of a direction fan out over the executor's thread pool
against that shared index, returning small ``(p, 2)`` pair arrays.
"""

from __future__ import annotations

import numpy as np

from ..ann.cache import IndexCache
from ..ann.mutual import MutualPair, batch_invariant, directed_pairs, mutual_pairs
from ..config import MergingConfig
from ..core.merging import plan_merge_index
from ..core.parallel import ParallelExecutor, default_executor


def _directed_union(
    executor: ParallelExecutor,
    index,
    resolved_backend: str,
    query_vectors: np.ndarray,
    owners: np.ndarray,
    config: MergingConfig,
) -> list[np.ndarray]:
    """One direction's directed pair arrays, one per owner group (ascending owner id).

    Each group's array is the whole-batch :func:`~repro.ann.mutual.directed_pairs`
    restricted to its rows: the keep mask and the per-query-row ``np.unique``
    commute with a row restriction when the index is batch invariant, and
    groups are disjoint. A batch-shape-sensitive backend (brute force) could
    drift in the last ulp per group, so it is asked once, whole-batch.
    """
    if batch_invariant(resolved_backend):
        groups = [np.flatnonzero(owners == owner) for owner in np.unique(owners)]
    else:
        groups = [slice(None)]
    return executor.map(
        lambda rows: directed_pairs(index, query_vectors, config.k, config.m, rows), groups
    )


@default_executor
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
    # Both sides are built here, in mutual_top_k's order (b first, then a)
    # against the shared cache, through the same step function.
    resolved_b, work, commit = plan_merge_index(vectors_b, config, cache)
    index_b = commit(work())
    resolved_a, work, commit = plan_merge_index(vectors_a, config, cache)
    index_a = commit(work())
    forward = _directed_union(executor, index_b, resolved_b, vectors_a, owners_a, config)
    backward = _directed_union(executor, index_a, resolved_a, vectors_b, owners_b, config)
    # The cross-shard stitch is mutual_top_k's own tail.
    return mutual_pairs(forward, backward, vectors_a, vectors_b, config.metric)
