"""Vectorized distance kernels used by the ANN indexes and the pruning stage.

The paper uses cosine distance in the merging phase and euclidean distance in
the pruning phase; both are provided in pairwise (matrix), row-wise paired
and prepared one-query-to-rows forms.
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


def paired_distances(a: np.ndarray, b: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Row-wise paired distances: ``out[i] = distance(a[i], b[i])``.

    The O(m·d) replacement for reading the diagonal of
    :func:`distance_matrix` (O(m²·d)). Mirrors the matrix kernels' formulas
    exactly (same normalization, clipping, and clamping); the row dot
    products run through one ``einsum`` pass instead of a BLAS GEMM, which
    can differ from the corresponding matrix diagonal in the last float32
    ulp on BLAS builds whose GEMM accumulation order is shape-dependent.
    Exactly representable cases (identical rows, axis-aligned unit vectors)
    are unaffected.
    """
    _check_metric(metric)
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if metric == "cosine":
        a_norm = np.linalg.norm(a, axis=1, keepdims=True)
        b_norm = np.linalg.norm(b, axis=1, keepdims=True)
        a_norm[a_norm == 0] = 1.0
        b_norm[b_norm == 0] = 1.0
        similarity = np.einsum("ij,ij->i", a / a_norm, b / b_norm)
        return np.clip(1.0 - similarity, 0.0, 2.0)
    a_sq = (a * a).sum(axis=1)
    b_sq = (b * b).sum(axis=1)
    squared = a_sq + b_sq - 2.0 * np.einsum("ij,ij->i", a, b)
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


def pairwise_distances(vectors: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Symmetric distance matrix among rows of one matrix."""
    return distance_matrix(vectors, vectors, metric)


def batched_pairwise_distances(stacked: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Per-slice pairwise distances over a ``(t, u, d)`` stack of vector sets.

    Slice ``i`` of the result equals ``pairwise_distances(stacked[i], metric)``
    **bit for bit** — the batched pruning classifier relies on this to replace
    its per-tuple loop. Two aliasing details make that hold on this BLAS:
    the euclidean branch multiplies the stack with a transpose view of
    *itself* (same buffer, the syrk-style path :func:`euclidean_distance_matrix`
    takes via ``a @ b.T`` with ``a is b``), while the cosine branch normalizes
    into two *distinct* buffers because :func:`cosine_distance_matrix` computes
    ``a / a_norm`` and ``b / b_norm`` separately and therefore takes the
    general gemm path even when ``a is b``. Both equalities are pinned by
    ``tests/core/test_flat_equivalence.py``.
    """
    _check_metric(metric)
    stacked = np.asarray(stacked, dtype=np.float32)
    if metric == "cosine":
        norms = np.linalg.norm(stacked, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        left = stacked / norms
        right = left.copy()  # distinct buffer (same bytes): keep BLAS on the gemm path
        similarity = np.matmul(left, right.transpose(0, 2, 1))
        return np.clip(1.0 - similarity, 0.0, 2.0)
    squared_norms = (stacked * stacked).sum(axis=2)
    squared = squared_norms[:, :, None] + squared_norms[:, None, :] - 2.0 * np.matmul(
        stacked, stacked.transpose(0, 2, 1)
    )
    np.maximum(squared, 0.0, out=squared)
    return np.sqrt(squared)


class PreparedVectors:
    """Distance kernels over a fixed vector set with per-row work hoisted out.

    :func:`distance_matrix` re-normalizes (cosine) or re-computes squared norms
    (euclidean) of *both* operands on every call. An ANN index issues thousands
    of small query-to-neighbours calls against the same indexed matrix, so this
    class precomputes the index-side row statistics once. All arithmetic keeps
    the exact operation order of :func:`distance_matrix`, and the per-row
    precomputations are element-wise, so every result is bit-for-bit identical
    to the unprepared kernel — a requirement for the HNSW regression tests.
    """

    def __init__(self, vectors: np.ndarray, metric: str = "cosine") -> None:
        _check_metric(metric)
        self.metric = metric
        self.vectors = np.asarray(vectors, dtype=np.float32)
        self._normed: np.ndarray | None = None
        self._squared_norms: np.ndarray | None = None
        self._prepare(self.vectors, append=False)

    def _prepare(self, rows: np.ndarray, *, append: bool) -> None:
        if self.metric == "cosine":
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            normed = rows / norms
            self._normed = normed if not append else np.concatenate([self._normed, normed])
        else:
            squared = (rows * rows).sum(axis=1)
            self._squared_norms = (
                squared if not append else np.concatenate([self._squared_norms, squared])
            )

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    def append(self, rows: np.ndarray) -> None:
        """Add rows to the prepared set (used by incremental index inserts)."""
        rows = np.asarray(rows, dtype=np.float32)
        self._prepare(rows, append=True)
        self.vectors = np.concatenate([self.vectors, rows])

    def native_views(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Contiguous kernel-facing buffers for the native HNSW kernel.

        Returns ``(normed_rows, None)`` for cosine and
        ``(vectors, squared_norms)`` for euclidean, canonicalizing the
        internal buffers to C-contiguous (a one-time, value-preserving copy
        when the input had exotic strides).
        """
        if self.metric == "cosine":
            assert self._normed is not None
            self._normed = np.ascontiguousarray(self._normed)
            return self._normed, None
        assert self._squared_norms is not None
        self.vectors = np.ascontiguousarray(self.vectors)
        self._squared_norms = np.ascontiguousarray(self._squared_norms)
        return self.vectors, self._squared_norms

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Precompute the query-side row statistics (normalization for cosine)."""
        queries = np.asarray(queries, dtype=np.float32)
        if self.metric == "cosine":
            norms = np.linalg.norm(queries, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            return queries / norms
        return queries

    def block_distances(self, prepared_queries: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """``distance_matrix(queries, vectors[rows])`` without re-normalization.

        ``prepared_queries`` must come from :meth:`prepare_queries`.
        """
        if self.metric == "cosine":
            normed = self._normed if rows is None else self._normed[rows]
            similarity = prepared_queries @ normed.T
            # In-place clip(1 - sim, 0, 2); values match np.clip exactly.
            np.subtract(1.0, similarity, out=similarity)
            if _clip_ufunc is not None:
                _clip_ufunc(similarity, 0.0, 2.0, out=similarity)
            else:
                np.maximum(similarity, 0.0, out=similarity)
                np.minimum(similarity, 2.0, out=similarity)
            return similarity
        targets = self.vectors if rows is None else self.vectors[rows]
        target_sq = self._squared_norms if rows is None else self._squared_norms[rows]
        query_sq = (prepared_queries * prepared_queries).sum(axis=1)[:, None]
        squared = query_sq + target_sq[None, :] - 2.0 * (prepared_queries @ targets.T)
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared)

    def row_distances(self, prepared_query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Distances from one prepared query vector to ``vectors[rows]`` (1-d).

        Uses a matrix-vector product rather than a 1-row matrix product; the
        two produce bit-identical dot products (verified by the regression
        tests), and the matvec form skips two view creations per call — this
        is the innermost kernel of every HNSW expansion step.
        """
        if self.metric == "cosine":
            similarity = self._normed[rows] @ prepared_query
            np.subtract(1.0, similarity, out=similarity)
            if _clip_ufunc is not None:
                _clip_ufunc(similarity, 0.0, 2.0, out=similarity)
            else:
                np.maximum(similarity, 0.0, out=similarity)
                np.minimum(similarity, 2.0, out=similarity)
            return similarity
        products = self.vectors[rows] @ prepared_query
        query_sq = (prepared_query * prepared_query).sum()
        squared = query_sq + self._squared_norms[rows] - 2.0 * products
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared)
