"""TF-IDF + truncated-SVD sentence encoder (latent semantic analysis).

A second Sentence-BERT substitute: character-n-gram TF-IDF features reduced
to a dense space with a truncated SVD (or a random projection when the corpus
is too small for the requested rank). Compared to the hashed encoder it
adapts its basis to the corpus, at the cost of a fitting step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse.linalg import svds

from ..exceptions import ConfigurationError, DataError
from ..text.tfidf import TfidfVectorizer
from .base import SentenceEncoder, normalize_rows
from .random_projection import GaussianRandomProjection


class TfidfSvdEncoder(SentenceEncoder):
    """Latent-semantic-analysis style encoder over char-n-gram TF-IDF features.

    Args:
        dimension: output dimensionality.
        analyzer: ``"char"`` (robust to typos, default) or ``"word"``.
        ngram_range: character n-gram sizes for the char analyzer.
        min_df: minimum document frequency of a feature.
        seed: seed for the random-projection fallback.
    """

    def __init__(
        self,
        dimension: int = 256,
        analyzer: str = "char",
        ngram_range: tuple[int, int] = (3, 4),
        min_df: int = 1,
        seed: int = 0,
    ) -> None:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        self.dimension = dimension
        self.seed = seed
        self._vectorizer = TfidfVectorizer(analyzer=analyzer, min_df=min_df, ngram_range=ngram_range)
        self._basis: np.ndarray | None = None
        self._projection: GaussianRandomProjection | None = None

    def fit(self, texts: Sequence[str]) -> "TfidfSvdEncoder":
        """Fit the TF-IDF vocabulary and the SVD basis on ``texts``."""
        if len(texts) == 0:
            raise DataError("cannot fit encoder on an empty corpus")
        matrix = self._vectorizer.fit_transform(texts)
        rank_limit = min(matrix.shape) - 1
        if rank_limit >= self.dimension:
            _, _, vt = svds(matrix, k=self.dimension, random_state=self.seed)
            self._basis = np.asarray(vt.T, dtype=np.float32)
            self._projection = None
        else:
            # Corpus too small for the requested rank: fall back to a random
            # projection, which preserves cosine geometry well enough.
            self._projection = GaussianRandomProjection(self.dimension, seed=self.seed)
            self._projection.fit(self._vectorizer.num_features)
            self._basis = None
        return self

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Encode texts; requires :meth:`fit` to have been called."""
        if self._basis is None and self._projection is None:
            raise DataError("TfidfSvdEncoder must be fitted before encode()")
        features = self._vectorizer.transform(texts)
        if self._basis is not None:
            dense = np.asarray(features @ self._basis, dtype=np.float32)
        else:
            assert self._projection is not None
            dense = self._projection.transform(features)
        return normalize_rows(dense)
