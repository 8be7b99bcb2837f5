"""Medoid pooling for the representative-vector design ablation.

The paper uses mean pooling over Sentence-BERT token embeddings; the encoders
in this package pool internally, and the merging stage computes a merged
item's mean representative with ``core/merging.py::bucketed_weighted_mean``.
The medoid is the alternative the design ablation compares against it.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import DataError


def medoid_pool(vectors: np.ndarray) -> np.ndarray:
    """Return the member vector with the smallest total distance to the others.

    Used by the design ablation comparing mean vs medoid representatives for
    merged items.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DataError("medoid_pool expects a non-empty (n, d) matrix")
    if vectors.shape[0] == 1:
        return vectors[0]
    distances = np.linalg.norm(vectors[:, None, :] - vectors[None, :, :], axis=-1)
    return vectors[int(np.argmin(distances.sum(axis=1)))]
