"""Character-n-gram TF-IDF vectorizer backed by scipy sparse matrices.

This is the similarity substrate of the AutoFuzzyJoin baseline
(:mod:`repro.baselines.autofj`), which joins on cosine similarity between
TF-IDF vectors of character 3- and 4-grams; that is the one shape it fits.

``transform`` is vectorized: tokens map to column ids through one sorted-array
``searchsorted`` lookup and term counts come from a single ``np.unique`` over
packed ``(row, column)`` keys, instead of one Python dict per document. The
resulting CSR matrix is identical (same canonical layout, same float64
values) to the historical per-document construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

from ..exceptions import DataError
from .tokenizer import text_ngrams

#: Character n-gram sizes (AutoFuzzyJoin's 3- and 4-grams).
NGRAM_RANGE = (3, 4)


class TfidfVectorizer:
    """Fit/transform TF-IDF over the character n-grams of each text's words.

    Every n-gram seen while fitting is a term (no document-frequency cut).
    """

    def __init__(self) -> None:
        self.vocabulary_: dict[str, int] = {}
        self.idf_: np.ndarray | None = None
        self._sorted_terms: np.ndarray | None = None
        self._sorted_columns: np.ndarray | None = None
        # The dict the lookup arrays were built from. Holding the reference
        # (not just its id()) makes the staleness check immune to CPython
        # reusing a freed dict's address.
        self._lookup_vocabulary: dict[str, int] | None = None
        self._lookup_has_nul = False

    # -------------------------------------------------------------- analysis
    @staticmethod
    def _analyze(text: str) -> list[str]:
        return text_ngrams(text, *NGRAM_RANGE)

    # ------------------------------------------------------------------- fit
    def fit(self, texts: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``texts``."""
        if len(texts) == 0:
            raise DataError("cannot fit a TF-IDF vectorizer on an empty corpus")
        documents = [self._analyze(text) for text in texts]
        df: dict[str, int] = {}
        for doc in documents:
            for term in set(doc):
                df[term] = df.get(term, 0) + 1
        terms = sorted(df)
        self.vocabulary_ = {term: i for i, term in enumerate(terms)}
        num_documents = len(texts)
        self.idf_ = np.array(
            [np.log((1 + num_documents) / (1 + df[term])) + 1.0 for term in terms],
            dtype=np.float64,
        )
        self._sorted_terms = None
        self._lookup_vocabulary = None
        return self

    def _term_lookup(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Sorted term array, aligned column ids, and the longest term length.

        Rebuilt whenever ``vocabulary_`` is rebound (identity-checked against
        a held reference) or changes size. Mutating the *same* dict in place
        at constant size is not detected — refit (or rebind the attribute)
        after editing a fitted vocabulary.
        """
        stale = (
            self._sorted_terms is None
            or self._lookup_vocabulary is not self.vocabulary_
            or len(self._sorted_columns) != len(self.vocabulary_)
        )
        if stale:
            terms = sorted(self.vocabulary_)
            self._sorted_terms = np.array(terms, dtype=np.str_) if terms else np.zeros(0, dtype=np.str_)
            self._sorted_columns = np.fromiter(
                (self.vocabulary_[t] for t in terms), dtype=np.int64, count=len(terms)
            )
            self._lookup_vocabulary = self.vocabulary_
            # numpy '<U' storage drops trailing NULs, so NUL-bearing terms
            # cannot round-trip through the sorted-array lookup.
            self._lookup_has_nul = any("\0" in term for term in terms)
        max_length = int(self._sorted_terms.dtype.itemsize // 4) if self._sorted_terms.size else 0
        return self._sorted_terms, self._sorted_columns, max_length

    def _transform_by_dict(self, texts: Sequence[str]) -> sparse.csr_matrix:
        """Per-document dict counting — the historical path, kept as the exact
        fallback for vocabularies the fixed-width array lookup cannot encode
        (terms with embedded NULs)."""
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for row, text in enumerate(texts):
            counts: dict[int, int] = {}
            for term in self._analyze(text):
                index = self.vocabulary_.get(term)
                if index is not None:
                    counts[index] = counts.get(index, 0) + 1
            for index, count in counts.items():
                rows.append(row)
                cols.append(index)
                values.append(count * float(self.idf_[index]))
        matrix = sparse.csr_matrix(
            (values, (rows, cols)), shape=(len(texts), len(self.vocabulary_)), dtype=np.float64
        )
        return self._normalize_rows(matrix)

    @staticmethod
    def _normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
        norms = sparse.linalg.norm(matrix, axis=1)
        norms[norms == 0] = 1.0
        scaling = sparse.diags(1.0 / norms)
        return scaling @ matrix

    def transform(self, texts: Sequence[str]) -> sparse.csr_matrix:
        """Transform ``texts`` into an L2-normalized TF-IDF matrix."""
        if self.idf_ is None:
            raise DataError("vectorizer must be fitted before transform")
        num_rows = len(texts)
        num_features = len(self.vocabulary_)
        sorted_terms, sorted_columns, max_term_length = self._term_lookup()
        if self._lookup_has_nul:
            # numpy's fixed-width strings drop trailing NULs, so such terms
            # can't be matched through the array lookup; use the exact
            # historical path instead.
            return self._transform_by_dict(texts)
        # Tokens longer than the longest vocabulary term cannot match any term
        # (and NUL-bearing tokens cannot match a NUL-free vocabulary), so drop
        # them before building the fixed-width token array — one pathological
        # long token would otherwise widen every slot in it, and a trailing
        # NUL would be stripped by the array storage and falsely match.
        documents = [
            [
                token
                for token in self._analyze(text)
                if len(token) <= max_term_length and "\0" not in token
            ]
            for text in texts
        ]
        lengths = np.fromiter((len(d) for d in documents), dtype=np.int64, count=num_rows)
        tokens = np.array(list(chain.from_iterable(documents)), dtype=np.str_)
        if tokens.size and sorted_terms.size:
            positions = np.searchsorted(sorted_terms, tokens)
            positions_clipped = np.minimum(positions, len(sorted_terms) - 1)
            valid = sorted_terms[positions_clipped] == tokens
            rows = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)[valid]
            cols = sorted_columns[positions_clipped[valid]]
            keys = rows * np.int64(num_features) + cols
            unique_keys, counts = np.unique(keys, return_counts=True)
            unique_rows = unique_keys // num_features
            unique_cols = unique_keys % num_features
        else:
            unique_rows = np.zeros(0, dtype=np.int64)
            unique_cols = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
        data = counts.astype(np.float64) * self.idf_[unique_cols]
        indptr = np.searchsorted(unique_rows, np.arange(num_rows + 1, dtype=np.int64))
        matrix = sparse.csr_matrix(
            (data, unique_cols, indptr), shape=(num_rows, num_features), dtype=np.float64
        )
        return self._normalize_rows(matrix)


def cosine_similarity_sparse(
    a: sparse.csr_matrix, b: sparse.csr_matrix, *, block_size: int | None = None
) -> np.ndarray:
    """Dense cosine-similarity matrix between rows of two L2-normalized sparse matrices.

    Args:
        a: ``(n, f)`` L2-normalized sparse matrix.
        b: ``(m, f)`` L2-normalized sparse matrix.
        block_size: when given, the product is computed ``block_size`` rows of
            ``a`` at a time and written into one preallocated ``(n, m)``
            output, so peak memory stays one dense result plus a small block
            instead of the sparse product *and* its dense copy at once.
    """
    if block_size is None:
        return (a @ b.T).toarray()
    b_transposed = b.T.tocsr()  # convert once, not per block
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.result_type(a.dtype, b.dtype))
    for start in range(0, a.shape[0], block_size):
        stop = min(start + block_size, a.shape[0])
        out[start:stop] = (a[start:stop] @ b_transposed).toarray()
    return out
