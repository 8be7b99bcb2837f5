"""Vectorized distance kernels used by the ANN indexes and the pruning stage.

The paper uses cosine distance in the merging phase and euclidean distance in
the pruning phase; both are provided in pairwise (matrix) form. Merging's
cosine alone also has a row-wise paired form, and the ANN indexes run on
:class:`PreparedVectors`, its prepared one-query-to-rows form. Pruning's
euclidean alone has a batched per-slice form.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

METRICS = ("cosine", "euclidean")

# Single-dispatch clip ufunc: np.clip's wrapper adds ~3x dispatch cost, which
# matters in the per-expansion ANN kernels. Fall back to a maximum+minimum
# pair (identical values) if the internal location moves again.
try:
    from numpy._core.umath import clip as _clip_ufunc  # numpy >= 2.0
except ImportError:  # pragma: no cover - depends on numpy version
    try:
        from numpy.core.umath import clip as _clip_ufunc  # numpy 1.17 - 1.x
    except ImportError:
        _clip_ufunc = None


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ConfigurationError(f"unknown metric {metric!r}; choose from {METRICS}")


def cosine_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distance between rows of ``a`` and rows of ``b``.

    Rows need not be normalized; zero rows get distance 1 to everything.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    a_norm = np.linalg.norm(a, axis=1, keepdims=True)
    b_norm = np.linalg.norm(b, axis=1, keepdims=True)
    a_norm[a_norm == 0] = 1.0
    b_norm[b_norm == 0] = 1.0
    similarity = (a / a_norm) @ (b / b_norm).T
    return np.clip(1.0 - similarity, 0.0, 2.0)


def euclidean_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise euclidean distance between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    a_sq = (a * a).sum(axis=1)[:, None]
    b_sq = (b * b).sum(axis=1)[None, :]
    squared = a_sq + b_sq - 2.0 * (a @ b.T)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def distance_matrix(a: np.ndarray, b: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Pairwise distances under the named metric."""
    _check_metric(metric)
    if metric == "cosine":
        return cosine_distance_matrix(a, b)
    return euclidean_distance_matrix(a, b)


def paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise paired cosine distances: ``out[i] = distance(a[i], b[i])``.

    The O(m·d) replacement for reading the diagonal of
    :func:`cosine_distance_matrix` (O(m²·d)). Mirrors the matrix kernel's
    formula exactly (same normalization and clipping); the row dot products
    run through one ``einsum`` pass instead of a BLAS GEMM, which can differ
    from the corresponding matrix diagonal in the last float32 ulp on BLAS
    builds whose GEMM accumulation order is shape-dependent. Exactly
    representable cases (identical rows, axis-aligned unit vectors) are
    unaffected.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    a_norm = np.linalg.norm(a, axis=1, keepdims=True)
    b_norm = np.linalg.norm(b, axis=1, keepdims=True)
    a_norm[a_norm == 0] = 1.0
    b_norm[b_norm == 0] = 1.0
    similarity = np.einsum("ij,ij->i", a / a_norm, b / b_norm)
    return np.clip(1.0 - similarity, 0.0, 2.0)


def pairwise_distances(vectors: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Symmetric distance matrix among rows of one matrix."""
    return distance_matrix(vectors, vectors, metric)


def batched_pairwise_distances(stacked: np.ndarray) -> np.ndarray:
    """Per-slice euclidean distances over a ``(t, u, d)`` stack of vector sets.

    Slice ``i`` of the result equals ``pairwise_distances(stacked[i])``
    **bit for bit** — the batched pruning classifier relies on this to replace
    its per-tuple loop. It holds on this BLAS because the stack is multiplied
    with a transpose view of *itself* (same buffer, the syrk-style path
    :func:`euclidean_distance_matrix` takes via ``a @ b.T`` with ``a is b``);
    ``tests/core/test_flat_equivalence.py`` pins it.
    """
    stacked = np.asarray(stacked, dtype=np.float32)
    squared_norms = (stacked * stacked).sum(axis=2)
    squared = squared_norms[:, :, None] + squared_norms[:, None, :] - 2.0 * np.matmul(
        stacked, stacked.transpose(0, 2, 1)
    )
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` over their norms, a zero row kept (``cosine_distance_matrix``'s steps)."""
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return rows / norms


def _cosine_from_similarity(similarity: np.ndarray) -> np.ndarray:
    """In-place ``clip(1 - similarity, 0, 2)``; values match ``np.clip`` exactly."""
    np.subtract(1.0, similarity, out=similarity)
    if _clip_ufunc is not None:
        _clip_ufunc(similarity, 0.0, 2.0, out=similarity)
    else:
        np.maximum(similarity, 0.0, out=similarity)
        np.minimum(similarity, 2.0, out=similarity)
    return similarity


class PreparedVectors:
    """Cosine distance kernels over a fixed vector set, its rows normalized once.

    The ANN indexes know one distance, cosine (euclidean belongs to pruning,
    which never runs on an index). :func:`cosine_distance_matrix`
    re-normalizes *both* operands on every call; an ANN index issues
    thousands of small query-to-neighbours calls against the same indexed
    matrix, so this class normalizes the index-side rows once. All
    arithmetic keeps the exact operation order of :func:`distance_matrix`,
    and the per-row precomputation is element-wise, so every result is
    bit-for-bit identical to the unprepared kernel — a requirement for the
    HNSW regression tests.
    """

    def __init__(self, vectors: np.ndarray) -> None:
        self._normed = _unit_rows(np.asarray(vectors, dtype=np.float32))

    @property
    def size(self) -> int:
        return int(self._normed.shape[0])

    def native_rows(self) -> np.ndarray:
        """The normed rows, C-contiguous, for the native HNSW kernel.

        Canonicalizes the internal buffer (a one-time, value-preserving copy
        when the input had exotic strides).
        """
        self._normed = np.ascontiguousarray(self._normed)
        return self._normed

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Normalize the query rows."""
        return _unit_rows(np.asarray(queries, dtype=np.float32))

    def block_distances(self, prepared_queries: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """``distance_matrix(queries, vectors[rows])`` without re-normalization.

        ``prepared_queries`` must come from :meth:`prepare_queries`.
        """
        normed = self._normed if rows is None else self._normed[rows]
        return _cosine_from_similarity(prepared_queries @ normed.T)

    def row_distances(self, prepared_query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Distances from one prepared query vector to ``vectors[rows]`` (1-d).

        Uses a matrix-vector product rather than a 1-row matrix product; the
        two produce bit-identical dot products (verified by the regression
        tests), and the matvec form skips two view creations per call — this
        is the innermost kernel of every HNSW expansion step.
        """
        return _cosine_from_similarity(self._normed[rows] @ prepared_query)
