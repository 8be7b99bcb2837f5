"""Shared top-K query engine of the ANN backends.

Every ANN backend answers a batched top-K query by generating a candidate
set per query (graph traversal for HNSW, "all rows" for brute force) and
ranking those candidates exactly under the prepared cosine kernel. This
module holds what the backends share:

* :func:`alloc_topk` — the ``(indices, distances)`` output pair every
  backend fills (``-1`` / ``inf`` padding for missing slots).
* :func:`exact_topk_blocked` — the dense exact path (brute force): blocked
  full distance rows with ``argpartition`` selection, preserving
  :class:`~repro.ann.brute_force.BruteForceIndex`'s historical op order
  exactly; at ``k = 1`` one ``argmin`` pass answers every row whose minimum
  is unique and only the tied rows take that selection (same bytes).
* :func:`query_rows` — the batch-composition-invariant entry point the
  serving plane calls.
"""

from __future__ import annotations

import numpy as np

from .distances import PreparedVectors


def alloc_topk(num_queries: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded top-K output pair: int64 ``-1`` indices, float64 ``inf`` distances."""
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    distances = np.full((num_queries, k), np.inf, dtype=np.float64)
    return indices, distances


def exact_topk_blocked(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    k: int,
    batch_size: int,
    indices: np.ndarray,
    distances: np.ndarray,
    visit=None,
) -> None:
    """Dense exact top-k over every indexed row, blocked by query batch.

    The brute-force backend's re-rank: candidate generation is "all rows", so
    each block evaluates one full ``block_distances`` slab and selects with
    ``argpartition`` + ``argsort`` — op-for-op the historical
    ``BruteForceIndex.query`` body, preserving its selection (and tie)
    behaviour exactly.

    At ``k = 1`` (MultiEM's K) that body runs only on the query rows whose
    minimum is *not* attained exactly once (exact ties, ``±0.0``, NaN):
    ``argpartition`` selects per row, so re-selecting those rows alone returns
    what the whole block would. Every other row has one possible answer and
    ``argmin`` reads it in one pass, without the block-sized int64 index slab
    (both halves are pinned by ``tests/ann/test_exact_scan.py``). ``visit``,
    if given, is called with each distance block before selection reads it.
    """
    num_rows = prepared.size
    num_queries = prepared_queries.shape[0]
    effective_k = min(k, num_rows)
    for start in range(0, num_queries, batch_size):
        stop = min(start + batch_size, num_queries)
        block = prepared.block_distances(prepared_queries[start:stop])
        if visit is not None:
            visit(block)
        out = slice(start, stop)
        if effective_k == 1 and num_rows > 1:
            nearest = np.argmin(block, axis=1)
            best = block[np.arange(stop - start), nearest]
            indices[out, 0] = nearest
            distances[out, 0] = best
            redo = np.flatnonzero(np.count_nonzero(block == best[:, None], axis=1) != 1)
            if redo.size == 0:
                continue
            block = block[redo]
            out = start + redo
        if effective_k < num_rows:
            top = np.argpartition(block, effective_k - 1, axis=1)[:, :effective_k]
        else:
            top = np.tile(np.arange(num_rows), (len(block), 1))
        row_index = np.arange(len(block))[:, None]
        top_distances = block[row_index, top]
        order = np.argsort(top_distances, axis=1)
        indices[out, :effective_k] = top[row_index, order]
        distances[out, :effective_k] = top_distances[row_index, order]


def query_rows(index, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched top-K whose per-row answers never depend on batch composition.

    The serving plane's entry point: row ``i`` of the result is bit-identical
    to ``index.query(queries[i:i+1], k)``, whatever else rides in the batch —
    the property that lets the request coalescer fold concurrent requests
    into one call and slice per-request answers back out byte-identically.

    Backends that declare ``batch_invariant`` (HNSW's per-row graph
    traversal) answer the whole batch in one
    call, which is where the amortization lives; the dense brute-force scan
    changes BLAS dispatch with the batch shape (an ``m=1`` GEMM takes the
    GEMV path and can differ in the last float32 ulp), so it is evaluated
    row by row here. At brute-force scale (``auto`` routes tables past
    ``brute_force_limit`` to HNSW) each row is one prepared GEMV — the loop
    costs microseconds and buys exactness of the coalescing contract.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if getattr(index, "batch_invariant", False) or queries.shape[0] <= 1:
        return index.query(queries, k)
    indices, distances = alloc_topk(queries.shape[0], k)
    for row in range(queries.shape[0]):
        row_indices, row_distances = index.query(queries[row : row + 1], k)
        indices[row] = row_indices[0]
        distances[row] = row_distances[0]
    return indices, distances
