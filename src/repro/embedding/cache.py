"""In-memory embedding cache keyed by exact text.

The representer wraps its encoder in this cache for the paths that encode raw
serialized texts: ``EntityRepresenter.encode_table`` (every
``IncrementalMultiEM.add_table``, or a table ``fit`` stashed no ids for) and
``EntityRepresenter.encode_texts`` (``MatchSession.query_many``, the
supervised baselines). A repeated text (a hot query, a duplicate row) is
encoded once, with the same result. Algorithm 1 and ``encode_dataset``'s
stashed tables pool token ids straight into the kernel, bypassing the cache.

A cache entry is a row view of the array :meth:`CachingEncoder.encode`
returned — the embedding store's block, or a query batch — not of the inner
encoder's output, so a cached vector is resident once. That array is
returned read-only: no caller's write can reach a later cache hit. When
fewer than half of a batch's rows are new, the entries are rows of one
compact copy of the new rows instead, so a few new texts among many hits do
not keep the whole batch alive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hashed import HashedNGramEncoder


class CachingEncoder:
    """Wrap the sentence encoder with an exact-match text cache.

    :meth:`encode` returns a read-only array; the cache keeps row views of it.
    """

    def __init__(self, inner: HashedNGramEncoder, max_entries: int = 1_000_000) -> None:
        self.inner = inner
        self.dimension = inner.dimension
        self.max_entries = max_entries
        self._cache: dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def fit(self, texts: Sequence[str]) -> "CachingEncoder":
        self.inner.fit(texts)
        self._cache.clear()
        return self

    def fit_token_ids(self, tokens, token_ids, counts) -> "CachingEncoder":
        """:meth:`fit` from a corpus mapped onto its sorted distinct tokens."""
        self.inner.fit_token_ids(tokens, token_ids, counts)
        self._cache.clear()
        return self

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        result = np.zeros((len(texts), self.dimension), dtype=np.float32)
        missing_positions: list[int] = []
        missing_texts: list[str] = []
        for i, text in enumerate(texts):
            cached = self._cache.get(text)
            if cached is not None:
                result[i] = cached
                self.hits += 1
            else:
                missing_positions.append(i)
                missing_texts.append(text)
                self.misses += 1
        if missing_texts:
            result[missing_positions] = self.inner.encode(missing_texts)
        result.flags.writeable = False  # before the views: they inherit it
        rows = result
        if 2 * len(missing_positions) < len(texts):  # mostly hits: pin only the new rows
            rows, missing_positions = result[missing_positions], range(len(missing_positions))
            rows.flags.writeable = False
        for position, text in zip(missing_positions, missing_texts):
            if len(self._cache) < self.max_entries:
                self._cache[text] = rows[position]
        return result

    def clear(self) -> None:
        """Drop all cached vectors and reset statistics."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
