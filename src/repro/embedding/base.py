"""Encoder protocol shared by every sentence-embedding backend.

The paper encodes serialized entities with a pre-trained Sentence-BERT
(``all-MiniLM-L12-v2``, 384-d, mean pooling). The substitutes in this package
implement the same contract: ``encode(list_of_texts) -> (n, dim) unit-norm
float32 matrix``, deterministic for a given configuration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class SentenceEncoder(ABC):
    """Maps serialized records to dense unit-length vectors."""

    #: embedding dimensionality
    dimension: int

    @abstractmethod
    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Encode ``texts`` into an ``(len(texts), dimension)`` float32 matrix.

        Every non-empty row is L2-normalized; rows for empty texts are zero.
        """

    def fit(self, texts: Sequence[str]) -> "SentenceEncoder":
        """Optionally adapt corpus statistics (IDF weights, SVD basis).

        Stateless encoders may ignore this; the default is a no-op returning
        ``self`` so callers can always write ``encoder.fit(corpus)``.
        """
        return self


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows in place-safe fashion; zero rows stay zero."""
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms
