"""Row L2 normalization shared by the encoder and the merge stage's item vectors.

The paper encodes serialized entities with a pre-trained Sentence-BERT
(``all-MiniLM-L12-v2``, 384-d, mean pooling) whose outputs are compared by
cosine distance. :class:`~repro.embedding.hashed.HashedNGramEncoder` stands in
for it and, like it, returns unit-norm float32 rows; rows for empty texts are
zero.
"""

from __future__ import annotations

import numpy as np


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows in place-safe fashion; zero rows stay zero."""
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms
