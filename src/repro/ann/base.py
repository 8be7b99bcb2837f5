"""Nearest-neighbour index protocol.

Every index backend (brute force, HNSW) implements the same contract so
the merging stage can swap backends via configuration: build over a matrix of
item vectors, then answer batched top-K queries with distances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import IndexError_


class NearestNeighborIndex(ABC):
    """Top-K cosine nearest-neighbour search over a fixed set of vectors."""

    #: Whether ``query`` answers each row independently of the rest of the
    #: batch — i.e. row ``i`` of a batched call is bit-identical to a
    #: single-row call with the same vector. Backends whose hot path changes
    #: BLAS dispatch with the batch shape (the dense GEMM scan) leave this
    #: ``False``; :func:`repro.ann.engine.query_rows` then falls back to a
    #: per-row loop so callers that need batch-composition-invariant answers
    #: (the serving coalescer) get them from any backend.
    batch_invariant: bool = False

    def __init__(self) -> None:
        self._vectors: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    @abstractmethod
    def build(self, vectors: np.ndarray) -> "NearestNeighborIndex":
        """Index the rows of ``vectors``."""

    @abstractmethod
    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, distances)`` of the top-``k`` neighbours per query row.

        Both returned arrays have shape ``(len(queries), k)``; when fewer than
        ``k`` items are indexed, missing slots hold index ``-1`` and distance
        ``inf``.
        """

    def _require_built(self) -> np.ndarray:
        if self._vectors is None:
            raise IndexError_("index queried before build()")
        return self._vectors

    def _validate_rows(self, vectors: np.ndarray) -> np.ndarray:
        """Shape/width checks of the rows a built index is asked to ``query``."""
        width = self._require_built().shape[1]
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise IndexError_("expected a 2-d array of vectors")
        if vectors.shape[1] != width:
            raise IndexError_(f"cannot query a {width}-d index with {vectors.shape[1]}-d vectors")
        return vectors

    @staticmethod
    def _pad(indices: list[int], distances: list[float], k: int) -> tuple[np.ndarray, np.ndarray]:
        """Pad per-query results to exactly ``k`` entries."""
        idx = np.full(k, -1, dtype=np.int64)
        dist = np.full(k, np.inf, dtype=np.float64)
        count = min(k, len(indices))
        idx[:count] = indices[:count]
        dist[:count] = distances[:count]
        return idx, dist
