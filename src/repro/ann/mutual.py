"""Mutual top-K search between two sets of vectors (Eq. 1 of the paper).

The two-table merging strategy accepts a pair ``(e, e')`` only when each is in
the other's top-K *and* their distance is at most ``m``::

    P_m = {(e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m}

One merge is four steps — plan/build both indexes, forward query, backward
query trimmed to the rows forward returned, intersection — each a function
here. :func:`mutual_top_k` composes them serially for one pair; the merge
level loop in :mod:`repro.core.merging` runs each step for a wave of pairs as
one flat fan-out. An exact K = 1 pair is one step instead,
:func:`exact_top1_pairs`; every path ends in :func:`canonical_pairs`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, IndexError_
from . import engine
from .base import NearestNeighborIndex
from .brute_force import BATCH_SIZE, BruteForceIndex
from .cache import index_params_key  # bench compat: item 1 deletes
from .distances import METRICS, PreparedVectors, paired_distances
from .hnsw import HNSWIndex


@dataclass(frozen=True)
class MutualPair:
    """A mutually-nearest pair: row ``left`` of side A, row ``right`` of side B."""

    left: int
    right: int
    distance: float


def resolve_backend(backend: str, size_hint: int, brute_force_limit: int) -> str:
    """Resolve the ``"auto"`` backend choice to a concrete backend name."""
    if backend == "auto":
        return "brute-force" if size_hint <= brute_force_limit else "hnsw"
    return backend


def create_index(
    backend: str,
    metric: str,
    *,
    size_hint: int = 0,
    brute_force_limit: int = 4096,
    hnsw_max_degree: int = 16,
    hnsw_ef_construction: int = 100,
    hnsw_ef_search: int = 64,
    seed: int = 0,
) -> NearestNeighborIndex:
    """Instantiate an ANN backend by name.

    ``"auto"`` chooses brute force for small sides and HNSW for large ones,
    matching the practical advice that graph indexes only pay off at scale.
    """
    backend = resolve_backend(backend, size_hint, brute_force_limit)
    if backend == "brute-force":
        return BruteForceIndex(metric=metric)
    if backend == "hnsw":
        return HNSWIndex(
            metric=metric,
            max_degree=hnsw_max_degree,
            ef_construction=hnsw_ef_construction,
            ef_search=hnsw_ef_search,
            seed=seed,
        )
    raise ConfigurationError(f"unknown ANN backend {backend!r}")


_BACKENDS = {"brute-force": BruteForceIndex, "hnsw": HNSWIndex}


def batch_invariant(resolved_backend: str) -> bool:
    """Whether a resolved backend answers each query row independently of the batch.

    Decided from the backend *name*, not from the index object: what a
    caller's build returns may be a wrapper that exposes only ``query``.
    """
    return bool(getattr(_BACKENDS.get(resolved_backend), "batch_invariant", False))


def plan_side_index(
    vectors: np.ndarray,
    *,
    metric: str,
    backend: str,
    brute_force_limit: int,
    index_kwargs: dict | None = None,
    cache=None,  # bench compat: item 1 deletes
):
    """Step 1 of a merge — one side's index as ``(resolved_backend, build)``.

    ``build()`` is the build body and may run on a worker thread.
    """
    kwargs = dict(index_kwargs or {})
    resolved = resolve_backend(backend, vectors.shape[0], brute_force_limit)

    def build() -> NearestNeighborIndex:
        return create_index(
            backend, metric, size_hint=vectors.shape[0], brute_force_limit=brute_force_limit, **kwargs
        ).build(vectors)

    if cache is not None:  # bench compat: item 1 deletes
        key = index_params_key(resolved, metric, kwargs)  # bench compat: item 1 deletes
        build = cache.plan(vectors, build, params_key=key)  # bench compat: item 1 deletes
    return resolved, build


def row_chunks(rows: "int | np.ndarray", parts: int) -> "list[slice | np.ndarray]":
    """At most ``parts`` contiguous, non-empty chunks of ``rows``.

    ``rows`` is an ascending row-id array or a row count meaning *all* rows;
    chunks of the latter are slices, so one chunk is the whole matrix, viewed.
    """
    if isinstance(rows, np.ndarray):
        return [chunk for chunk in np.array_split(rows, parts) if chunk.size]
    bounds = [rows * part // parts for part in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def directed_pairs(
    index: NearestNeighborIndex,
    queries: np.ndarray,
    k: int,
    max_distance: float,
    rows: "slice | np.ndarray" = slice(None),
) -> np.ndarray:
    """Steps 2 and 3 — directed top-K pairs as a deduplicated ``(p, 2)`` int64 array.

    One boolean-mask pass over the batched query results: a slot survives
    when its neighbour is real (``>= 0``), its distance finite, and within
    ``max_distance``. Rows are sorted (and de-duplicated) by
    ``(query_row, index_row)`` via ``np.unique``. ``rows`` restricts the
    query to ``queries[rows]`` and labels the answers with those global row
    ids; on a :func:`batch_invariant` backend that is exactly the whole-batch
    array restricted to ``rows``, so chunk results concatenate to it.
    """
    indices, distances = index.query(queries[rows], k)
    keep = (indices >= 0) & np.isfinite(distances) & (distances <= max_distance)
    query_ids = np.arange(queries.shape[0], dtype=np.int64)[rows]
    pairs = np.stack(
        [np.broadcast_to(query_ids[:, None], indices.shape)[keep], indices[keep]], axis=1
    )
    return np.unique(pairs, axis=0)


def backward_rows(forward: np.ndarray, resolved_a: str, n_b: int) -> "int | np.ndarray":
    """The side-B rows the backward direction has to ask (for :func:`row_chunks`).

    A mutual pair ``(a, b)`` needs ``b`` among ``a``'s forward answers, so
    every other row's backward answer is discarded by the intersection: only
    the rows ``forward`` returned are asked. A backend that is not batch
    invariant (the GEMM scan, off :func:`one_pass_pair`) is asked whole.
    """
    return np.unique(forward[:, 1]) if batch_invariant(resolved_a) else n_b


def mutual_pairs(
    forward: "list[np.ndarray]",
    backward: "list[np.ndarray]",
    vectors_a: np.ndarray,
    vectors_b: np.ndarray,
    metric: str,
) -> list[MutualPair]:
    """Step 4 — chunked forward ∩ swapped backward, then :func:`canonical_pairs`."""
    pair_dtype = np.dtype([("left", np.int64), ("right", np.int64)])

    def rows_view(chunks: "list[np.ndarray]", columns: slice) -> np.ndarray:
        stacked = np.concatenate([np.zeros((0, 2), dtype=np.int64), *chunks])
        return np.ascontiguousarray(stacked[:, columns]).view(pair_dtype).reshape(-1)

    # Mutual pairs = forward ∩ swapped backward, intersected as structured
    # rows (each (left, right) pair is one comparable element).
    mutual = np.intersect1d(
        rows_view(forward, slice(None)), rows_view(backward, slice(None, None, -1)), assume_unique=True
    )
    return canonical_pairs(mutual["left"], mutual["right"], vectors_a, vectors_b, metric)


def canonical_pairs(
    lefts: np.ndarray, rights: np.ndarray, vectors_a: np.ndarray, vectors_b: np.ndarray, metric: str
) -> list[MutualPair]:
    """The tail of every mutual top-K path: exact distances, ``(distance, left, right)`` order."""
    dists = paired_distances(vectors_a[lefts], vectors_b[rights], metric)
    order = np.lexsort((rights, lefts, dists))
    return [MutualPair(int(lefts[i]), int(rights[i]), float(dists[i])) for i in order]


@functools.cache
def _scans_transpose() -> bool:
    """Probe, once per process: is each exact scan the reverse one transposed, to the bit?

    A BLAS property, checked per shape class :func:`one_pass_pair` admits.
    """

    def blocks(vectors: np.ndarray, queries: np.ndarray, metric: str) -> np.ndarray:
        prepared, found = PreparedVectors(vectors, metric), []
        indices, distances = engine.alloc_topk(len(queries), 1)
        queries = prepared.prepare_queries(queries)
        engine.exact_topk_blocked(prepared, queries, 1, BATCH_SIZE, indices, distances, found.append)
        return np.concatenate(found)

    rng = np.random.default_rng(0)
    for n_a, n_b, dim in ((1, 29, 16), (37, 29, 16), (BATCH_SIZE + 150, 300, 32)):
        a, b = (rng.standard_normal((n, dim), dtype=np.float32) for n in (n_a, n_b))
        for metric in METRICS:
            if blocks(b, a, metric).T.tobytes() != blocks(a, b, metric).tobytes():
                reason = f"{metric} scans of {n_a} x {n_b} x {dim} vectors do not transpose"
                warnings.warn(f"{reason} on this BLAS: exact merges take two scans", RuntimeWarning)
                return False
    return True


def one_pass_pair(
    vectors_a: np.ndarray, vectors_b: np.ndarray, k: int, backend: str, brute_force_limit: int
) -> bool:
    """Whether a pair's mutual top-K is :func:`exact_top1_pairs` rather than two scans.

    K = 1, both sides exact, and backward blocks made of forward block cells:
    one block each way is one product and its transpose; over more, each
    block is a GEMM of over 2^20 multiply-adds (OpenBLAS 0.3.31 sends smaller
    ones, and a GEMV, to kernels that sum in another order).
    """
    (n_a, dim), n_b = vectors_a.shape, vectors_b.shape[0]
    if k != 1 or {resolve_backend(backend, n, brute_force_limit) for n in (n_a, n_b)} != {"brute-force"}:
        return False
    sides = ((n_a, n_b), (n_b, n_a))
    blocks = [(min(BATCH_SIZE, n - s), other) for n, other in sides for s in range(0, n, BATCH_SIZE)]
    large = all(rows > 1 and other > 1 and rows * other * dim > 1 << 20 for rows, other in blocks)
    return (max(n_a, n_b) <= BATCH_SIZE or large) and _scans_transpose()


def exact_top1_pairs(
    vectors_a: np.ndarray, vectors_b: np.ndarray, max_distance: float, metric: str
) -> list[MutualPair]:
    """Mutual top-1 pairs from one exact scan a → b: the two-scan list, same bytes.

    The scan also keeps each column's running minimum and how many cells
    equal it. Column ``j`` is b-row ``j``'s backward row, so a forward pair
    ``(i, j)`` is mutual when that minimum is unique and is ``d(i, j)``. If it
    is tied or NaN and ``d(i, j)`` attains it, the backward block holding
    ``j`` is asked, shaped as two scans ask it, and its tie rule decides.
    """
    prepared = PreparedVectors(vectors_b, metric)
    minimum = np.full(prepared.size, np.inf, dtype=np.float32)
    count = np.zeros(prepared.size, dtype=np.int64)

    def columns(block: np.ndarray) -> None:
        low = block.min(axis=0)
        ties = np.count_nonzero(block == low, axis=0)
        merged = np.minimum(minimum, low)
        count[:] = np.where(minimum == merged, count, 0) + np.where(low == merged, ties, 0)
        minimum[:] = merged

    indices, distances = engine.alloc_topk(vectors_a.shape[0], 1)
    queries = prepared.prepare_queries(vectors_a)
    engine.exact_topk_blocked(prepared, queries, 1, BATCH_SIZE, indices, distances, columns)
    rights, found = indices[:, 0], distances[:, 0]
    keep = np.isfinite(found) & (found <= max_distance)
    unique = count[rights] == 1
    mutual = keep & unique & (found == minimum[rights])
    resolve = np.flatnonzero(keep & ~unique & ~(found > minimum[rights]))
    if resolve.size:
        index_a = BruteForceIndex(metric).build(vectors_a)
        winner = np.full(prepared.size, -1)  # b-row -> its backward answer within max_distance
        for start in np.unique(rights[resolve] // BATCH_SIZE) * BATCH_SIZE:
            back = directed_pairs(index_a, vectors_b, 1, max_distance, slice(start, start + BATCH_SIZE))
            winner[back[:, 0]] = back[:, 1]
        mutual[resolve] = winner[rights[resolve]] == resolve
    lefts = np.flatnonzero(mutual)
    return canonical_pairs(lefts, rights[lefts], vectors_a, vectors_b, metric)


def top_k_pairs(
    index: NearestNeighborIndex, queries: np.ndarray, k: int, max_distance: float
) -> set[tuple[int, int]]:
    """Directed top-K pairs (query_row, index_row) within ``max_distance``."""
    array = directed_pairs(index, queries, k, max_distance)
    return {(int(left), int(right)) for left, right in array}


def mutual_top_k(
    vectors_a: np.ndarray,
    vectors_b: np.ndarray,
    *,
    k: int = 1,
    max_distance: float = 0.35,
    metric: str = "cosine",
    backend: str = "auto",
    brute_force_limit: int = 4096,
    index_kwargs: dict | None = None,
    cache=None,  # bench compat: item 1 deletes
) -> list[MutualPair]:
    """Find all mutual top-K pairs between two vector sets (Eq. 1).

    Args:
        vectors_a: ``(n_a, d)`` matrix for the left table.
        vectors_b: ``(n_b, d)`` matrix for the right table.
        k: neighbourhood size (paper default 1).
        max_distance: the threshold ``m``.
        metric: distance metric.
        backend: ANN backend name (``"auto"``, ``"brute-force"``, ``"hnsw"``).
        brute_force_limit: size cut-off for the ``"auto"`` backend.
        index_kwargs: extra keyword arguments for :func:`create_index`.

    Returns:
        List of :class:`MutualPair`, sorted by distance ascending.

    Raises ``IndexError_`` unless both inputs are 2-d of one width, and
    ``ConfigurationError`` for a NaN or negative ``max_distance``.
    """
    if vectors_a.ndim != 2 or vectors_b.ndim != 2 or vectors_a.shape[1] != vectors_b.shape[1]:
        raise IndexError_(f"need 2-d inputs of one width, got {vectors_a.shape} and {vectors_b.shape}")
    if not max_distance >= 0:
        raise ConfigurationError(f"max_distance must be >= 0, got {max_distance!r}")
    if vectors_a.shape[0] == 0 or vectors_b.shape[0] == 0:
        return []
    if one_pass_pair(vectors_a, vectors_b, k, backend, brute_force_limit):
        return exact_top1_pairs(vectors_a, vectors_b, max_distance, metric)
    side = dict(
        metric=metric, backend=backend, brute_force_limit=brute_force_limit,
        index_kwargs=index_kwargs, cache=cache,  # bench compat: item 1 deletes
    )
    index_b = plan_side_index(vectors_b, **side)[1]()
    resolved_a, build_a = plan_side_index(vectors_a, **side)
    index_a = build_a()
    forward = directed_pairs(index_b, vectors_a, k, max_distance)  # a -> b
    backward = [  # b -> a
        directed_pairs(index_a, vectors_b, k, max_distance, rows)
        for rows in row_chunks(backward_rows(forward, resolved_a, vectors_b.shape[0]), 1)
    ]
    return mutual_pairs([forward], backward, vectors_a, vectors_b, metric)
