"""Exact nearest-neighbour search by full distance-matrix computation.

Used as the reference implementation for HNSW recall tests and as the default
backend for tables small enough that an exact search is faster than building
a graph index.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import IndexError_
from . import engine
from .base import NearestNeighborIndex
from .distances import PreparedVectors

#: Query rows per exact-scan block; its shape picks the BLAS kernel, so answers depend on it.
#: 512 rows x ``brute_force_limit`` (4,096) x 4 B = 8 MB per concurrent scan, near cache size
#: (2,048 rows held 32 MB); 256 saved little more and sent more blocks under 2^20 multiply-adds.
BATCH_SIZE = 512


class BruteForceIndex(NearestNeighborIndex):
    """Exact top-K search; O(n·q) distance evaluations per query batch.

    The index-side rows are normalized once at :meth:`build`, so repeated
    query batches against the same index skip the per-call re-normalization that
    :func:`~repro.ann.distances.distance_matrix` would redo. Queries run
    through the shared engine's dense path
    (:func:`repro.ann.engine.exact_topk_blocked` — candidate generation is
    "all rows"); results are bit-identical to the unprepared kernel. A
    ``k = 1`` query holds one float32 distance block plus a boolean tie mask
    per ``batch_size`` queries, not the int64 ``argpartition`` slab.
    """

    def __init__(self, batch_size: int = BATCH_SIZE) -> None:
        super().__init__()
        if batch_size < 1:
            raise IndexError_("batch_size must be >= 1")
        self.batch_size = batch_size
        self._prepared: PreparedVectors | None = None

    def build(self, vectors: np.ndarray) -> "BruteForceIndex":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise IndexError_("expected a 2-d array of vectors")
        self._vectors = vectors
        self._prepared = PreparedVectors(vectors)
        return self

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        queries = self._validate_rows(queries)
        if k < 1:
            raise IndexError_("k must be >= 1")
        assert self._prepared is not None
        indices, distances = engine.alloc_topk(queries.shape[0], k)
        prepared_queries = self._prepared.prepare_queries(queries)
        engine.exact_topk_blocked(
            self._prepared, prepared_queries, k, self.batch_size, indices, distances
        )
        return indices, distances
