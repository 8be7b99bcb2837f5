"""Mutual top-K search between two sets of vectors (Eq. 1 of the paper).

The two-table merging strategy accepts a pair ``(e, e')`` only when each is in
the other's top-K *and* their distance is at most ``m``::

    P_m = {(e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from .base import NearestNeighborIndex
from .brute_force import BruteForceIndex
from .cache import IndexCache, index_params_key
from .hnsw import HNSWIndex
from .lsh import LSHIndex


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
    lsh_num_tables: int = 8,
    lsh_num_bits: int = 12,
    lsh_probe_neighbors: bool = True,
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
    if backend == "lsh":
        return LSHIndex(
            metric=metric,
            num_tables=lsh_num_tables,
            num_bits=lsh_num_bits,
            probe_neighbors=lsh_probe_neighbors,
            seed=seed,
        )
    raise ConfigurationError(f"unknown ANN backend {backend!r}")


def _top_k_pair_array(
    index: NearestNeighborIndex, queries: np.ndarray, k: int, max_distance: float
) -> np.ndarray:
    """Directed top-K pairs as a deduplicated ``(p, 2)`` int64 array.

    One boolean-mask pass over the batched query results replaces the
    per-element Python loop: a slot survives when its neighbour is real
    (``>= 0``), its distance finite, and within ``max_distance``. Rows are
    sorted (and de-duplicated) by ``(query_row, index_row)`` via ``np.unique``
    — exactly the historical set's membership.
    """
    indices, distances = index.query(queries, k)
    keep = (indices >= 0) & np.isfinite(distances) & (distances <= max_distance)
    query_rows = np.broadcast_to(
        np.arange(indices.shape[0], dtype=np.int64)[:, None], indices.shape
    )[keep]
    pairs = np.stack([query_rows, indices[keep]], axis=1)
    return np.unique(pairs, axis=0)


def top_k_pairs(
    index: NearestNeighborIndex, queries: np.ndarray, k: int, max_distance: float
) -> set[tuple[int, int]]:
    """Directed top-K pairs (query_row, index_row) within ``max_distance``."""
    array = _top_k_pair_array(index, queries, k, max_distance)
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
    cache: IndexCache | None = None,
) -> list[MutualPair]:
    """Find all mutual top-K pairs between two vector sets (Eq. 1).

    Args:
        vectors_a: ``(n_a, d)`` matrix for the left table.
        vectors_b: ``(n_b, d)`` matrix for the right table.
        k: neighbourhood size (paper default 1).
        max_distance: the threshold ``m``.
        metric: distance metric.
        backend: ANN backend name (``"auto"``, ``"brute-force"``, ``"hnsw"``,
            ``"lsh"``).
        brute_force_limit: size cut-off for the ``"auto"`` backend.
        index_kwargs: extra keyword arguments for :func:`create_index`.
        cache: optional :class:`~repro.ann.cache.IndexCache` consulted before
            building either side's index. Reuse is exact (byte-identical to a
            fresh build), so pair output is unchanged.

    Returns:
        List of :class:`MutualPair`, sorted by distance ascending.
    """
    if vectors_a.shape[0] == 0 or vectors_b.shape[0] == 0:
        return []
    kwargs = dict(index_kwargs or {})

    def build_side(vectors: np.ndarray) -> NearestNeighborIndex:
        def build() -> NearestNeighborIndex:
            return create_index(
                backend,
                metric,
                size_hint=vectors.shape[0],
                brute_force_limit=brute_force_limit,
                **kwargs,
            ).build(vectors)

        if cache is None:
            return build()
        resolved = resolve_backend(backend, vectors.shape[0], brute_force_limit)
        params_key = index_params_key(resolved, metric, kwargs)
        return cache.get_or_build(vectors, build, params_key=params_key)

    index_b = build_side(vectors_b)
    index_a = build_side(vectors_a)

    forward = _top_k_pair_array(index_b, vectors_a, k, max_distance)  # a -> b
    backward = _top_k_pair_array(index_a, vectors_b, k, max_distance)  # b -> a
    # Mutual pairs = forward ∩ swapped backward, intersected as structured
    # rows (each (left, right) pair is one comparable element).
    pair_dtype = np.dtype([("left", np.int64), ("right", np.int64)])
    forward_view = np.ascontiguousarray(forward).view(pair_dtype).reshape(-1)
    backward_view = np.ascontiguousarray(backward[:, ::-1]).view(pair_dtype).reshape(-1)
    mutual = np.intersect1d(forward_view, backward_view, assume_unique=True)
    if mutual.size == 0:
        return []
    lefts = mutual["left"]
    rights = mutual["right"]
    from .distances import paired_distances  # local import to avoid cycle at module load

    dists = paired_distances(vectors_a[lefts], vectors_b[rights], metric)
    order = np.lexsort((rights, lefts, dists))
    return [
        MutualPair(int(lefts[i]), int(rights[i]), float(dists[i])) for i in order
    ]
