"""Shared candidate-generation → exact-re-rank query engine.

Every ANN backend answers a batched top-K query in two steps: *generate* a
candidate set per query (graph traversal for HNSW, bucket probing for LSH,
"all rows" for brute force), then *re-rank* those candidates exactly under
the prepared distance kernel and emit the best ``k`` per query. This module
is the single implementation of the re-rank half of that contract:

* :func:`alloc_topk` — the ``(indices, distances)`` output pair every
  backend fills (``-1`` / ``inf`` padding for missing slots).
* :func:`rerank_csr` — exact re-rank of a flat CSR (query → candidates)
  stream: one int64 candidate array plus ``(num_queries + 1,)`` offsets.
  This is the LSH hot path; it runs through the native kernel
  (:mod:`repro.ann.native`) when available and through a bucketed batched
  numpy path otherwise.
* :func:`exact_topk_blocked` — the dense exact path (brute force): blocked
  full distance rows with ``argpartition`` selection, preserving
  :class:`~repro.ann.brute_force.BruteForceIndex`'s historical op order
  exactly; at ``k = 1`` one ``argmin`` pass answers every row whose minimum
  is unique and only the tied rows take that selection (same bytes).

Byte-identity contract
----------------------

``rerank_csr`` orders each query's survivors by ascending
``(distance, segment position)`` — candidates arrive sorted ascending (the
``np.unique`` order of the probe stream), so the tie-break is by candidate
id. On tie-free data this is exactly the historical per-row
``np.argsort(dists)[:k]``; on exact distance ties (duplicate vectors) the
order is now *deterministically* stable instead of quicksort-dependent, and
the native and Python paths agree bit for bit (the load-time self-test and
``tests/ann/test_lsh_native.py`` pin this).

Distance values are bit-identical to
:meth:`~repro.ann.distances.PreparedVectors.row_distances` on every path:
the native kernel calls the same ``cblas_sgemv`` / ``cblas_sdot`` routines
numpy dispatches to, and the numpy fallback buckets segments by size and
evaluates each bucket with one ``(t, s, d) @ (t, d, 1)`` stacked matmul —
empirically bit-equal to the per-row matvec on this BLAS (each slice takes
the same GEMV-shaped path; pinned by
``tests/ann/test_lsh_native.py::test_batched_matmul_matches_row_matvec``),
followed by the identical clip / sqrt ufunc chain.
"""

from __future__ import annotations

import numpy as np

from . import native
from .distances import PreparedVectors, _clip_ufunc

#: Cap on elements of one ``(t, s, d)`` re-rank gather block (32M float32
#: elements = 128 MB); blocking is per-query, so values are unchanged.
_RERANK_BLOCK_ELEMENTS = 32_000_000


def alloc_topk(num_queries: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded top-K output pair: int64 ``-1`` indices, float64 ``inf`` distances."""
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    distances = np.full((num_queries, k), np.inf, dtype=np.float64)
    return indices, distances


def query_squared_norms(prepared: PreparedVectors, prepared_queries: np.ndarray) -> np.ndarray:
    """Per-query ``(q * q).sum()`` exactly as ``row_distances`` computes it.

    The row-wise ``sum(axis=1)`` over the contiguous axis reduces in the same
    pairwise order as each row's scalar ``.sum()`` (the equality the native
    HNSW kernel already relies on). Cosine queries carry no squared norm.
    """
    if prepared.metric == "cosine":
        return np.zeros(prepared_queries.shape[0], dtype=np.float32)
    return np.ascontiguousarray((prepared_queries * prepared_queries).sum(axis=1))


def rerank_csr(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
    *,
    use_native: bool | None = None,
) -> None:
    """Exact re-rank of a flat CSR candidate stream into ``(indices, distances)``.

    Args:
        prepared: index-side distance kernel (built at index ``build`` time).
        prepared_queries: output of ``prepared.prepare_queries`` for the batch.
        candidates: flat int64 candidate rows, all query segments concatenated;
            each segment must be sorted ascending (``np.unique`` order).
        offsets: ``(num_queries + 1,)`` int64 CSR offsets into ``candidates``.
        k: neighbours to keep per query.
        indices / distances: pre-allocated :func:`alloc_topk` outputs; rows
            with empty segments keep their ``-1`` / ``inf`` padding.
        use_native: tri-state kernel override (``None`` = auto, the
            ``REPRO_NATIVE``-governed default; ``False`` forces the numpy
            path; ``True`` uses the kernel whenever it loaded).
    """
    num_queries = int(offsets.shape[0]) - 1
    if num_queries <= 0 or candidates.size == 0:
        return
    kernel = None if use_native is False else native.get_kernel()
    if kernel is not None and _rerank_native(
        kernel, prepared, prepared_queries, candidates, offsets, k, indices, distances
    ):
        return
    _rerank_python(prepared, prepared_queries, candidates, offsets, k, indices, distances)


def _rerank_native(
    kernel: "native.NativeKernel",
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
) -> bool:
    """Run the C re-rank; False (outputs untouched) on allocation failure."""
    base, sq_norms = prepared.native_views()
    prepared_queries = np.ascontiguousarray(prepared_queries)
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    query_sqs = query_squared_norms(prepared, prepared_queries)
    status = kernel.rerank(
        base.ctypes.data,
        None if sq_norms is None else sq_norms.ctypes.data,
        int(base.shape[1]),
        0 if prepared.metric == "cosine" else 1,
        candidates.ctypes.data,
        offsets.ctypes.data,
        int(offsets.shape[0]) - 1,
        prepared_queries.ctypes.data,
        query_sqs.ctypes.data,
        k,
        indices.ctypes.data,
        distances.ctypes.data,
    )
    return status == 0


def _rerank_python(
    prepared: PreparedVectors,
    prepared_queries: np.ndarray,
    candidates: np.ndarray,
    offsets: np.ndarray,
    k: int,
    indices: np.ndarray,
    distances: np.ndarray,
) -> None:
    """Bucketed numpy re-rank (the ``REPRO_NATIVE=0`` / no-toolchain path).

    Queries are grouped by segment size ``s``; each bucket gathers its
    candidate rows into one ``(t, s, d)`` block and evaluates all distances
    with a stacked matmul against ``(t, d, 1)`` query columns — bit-equal to
    the per-row matvec (see the module docstring) — then selects top-k per
    row with a stable argsort.
    """
    counts = np.diff(offsets)
    if prepared.metric == "euclidean":
        query_sqs = query_squared_norms(prepared, prepared_queries)
    dim = int(prepared_queries.shape[1])
    for size in np.unique(counts):
        size = int(size)
        if size == 0:
            continue
        bucket_rows = np.flatnonzero(counts == size)
        block = max(1, _RERANK_BLOCK_ELEMENTS // (size * dim))
        for start in range(0, len(bucket_rows), block):
            rows = bucket_rows[start : start + block]
            gather = offsets[rows][:, None] + np.arange(size, dtype=np.int64)
            segment = candidates[gather]  # (t, s)
            if prepared.metric == "cosine":
                dists = np.matmul(prepared._normed[segment], prepared_queries[rows][:, :, None])[
                    :, :, 0
                ]
                np.subtract(1.0, dists, out=dists)
                if _clip_ufunc is not None:
                    _clip_ufunc(dists, 0.0, 2.0, out=dists)
                else:  # pragma: no cover - depends on numpy version
                    np.maximum(dists, 0.0, out=dists)
                    np.minimum(dists, 2.0, out=dists)
            else:
                products = np.matmul(
                    prepared.vectors[segment], prepared_queries[rows][:, :, None]
                )[:, :, 0]
                dists = (
                    query_sqs[rows][:, None] + prepared._squared_norms[segment]
                ) - 2.0 * products
                np.maximum(dists, 0.0, out=dists)
                np.sqrt(dists, out=dists)
            count = min(k, size)
            order = np.argsort(dists, axis=1, kind="stable")[:, :count]
            row_index = np.arange(len(rows))[:, None]
            indices[rows, :count] = segment[row_index, order]
            distances[rows, :count] = dists[row_index, order]


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
    traversal, LSH's per-segment re-rank) answer the whole batch in one
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
