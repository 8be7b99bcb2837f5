"""AutoFuzzyJoin-style unsupervised two-table matcher.

AutoFuzzyJoin (Li et al., SIGMOD 2021) auto-programs a fuzzy join without
labels by exploiting the fact that a *reference* table is (mostly) free of
duplicates: join configurations can be ranked by the precision they would
achieve on reference-vs-reference self joins, and the threshold is chosen to
hit a target precision. This module reproduces that idea with one similarity
family (character-n-gram TF-IDF cosine):

1. estimate a similarity threshold from the left table's self-join — the
   distribution of each record's nearest *other* record gives an upper bound
   on how similar two *distinct* entities tend to be;
2. join records across tables whose similarity clears the threshold and that
   are mutually nearest, which keeps precision high (AutoFJ's hallmark:
   high precision, modest recall — visible in Table IV's AutoFJ rows).

Like the original, memory grows with the TF-IDF similarity matrices, so the
matcher refuses datasets beyond ``max_total_entities`` (the paper's ``-``
cells for Music-200 and larger).
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table
from ..text.tfidf import TfidfVectorizer, cosine_similarity_sparse
from .two_table import MatchedPair, TwoTableMatcher

#: rows of the left operand multiplied per block when densifying similarity
#: matrices — bounds peak memory to one dense output plus one block.
SIMILARITY_BLOCK_ROWS = 2048


class AutoFuzzyJoin(TwoTableMatcher):
    """Unsupervised precision-targeted fuzzy join between two tables."""

    name = "AutoFJ"

    def __init__(
        self,
        target_precision: float = 0.9,
        max_total_entities: int | None = 10_000,
        min_threshold: float = 0.5,
    ) -> None:
        self.target_precision = target_precision
        self.max_total_entities = max_total_entities
        self.min_threshold = min_threshold

    # ----------------------------------------------------------------- utils
    @staticmethod
    def _serialize(table: Table) -> list[str]:
        return [" ".join(v for v in table.row(i) if v) for i in range(len(table))]

    def _self_join_threshold(self, similarity: np.ndarray) -> float:
        """Threshold above the similarity of nearly all distinct-entity pairs.

        The left (reference) table is assumed duplicate-free, so the nearest
        neighbour of each record *within the same table* is a different
        entity; the high quantile of those similarities is the point beyond
        which cross-table matches are likely true matches.
        """
        if similarity.shape[0] < 2:
            return self.min_threshold
        masked = similarity.copy()
        np.fill_diagonal(masked, -1.0)
        nearest = masked.max(axis=1)
        quantile = float(np.quantile(nearest, self.target_precision))
        return max(self.min_threshold, min(0.95, quantile))

    # ----------------------------------------------------------------- match
    def match_tables(self, left: Table, right: Table) -> list[MatchedPair]:
        left_texts = self._serialize(left)
        right_texts = self._serialize(right)
        if not left_texts or not right_texts:
            return []
        vectorizer = TfidfVectorizer()
        vectorizer.fit(left_texts + right_texts)
        left_matrix = vectorizer.transform(left_texts)
        right_matrix = vectorizer.transform(right_texts)

        left_self = cosine_similarity_sparse(
            left_matrix, left_matrix, block_size=SIMILARITY_BLOCK_ROWS
        )
        threshold = self._self_join_threshold(left_self)

        cross = cosine_similarity_sparse(
            left_matrix, right_matrix, block_size=SIMILARITY_BLOCK_ROWS
        )
        best_right_for_left = cross.argmax(axis=1)
        best_left_for_right = cross.argmax(axis=0)
        pairs: list[MatchedPair] = []
        left_refs, right_refs = left.refs(), right.refs()
        for left_row, right_row in enumerate(best_right_for_left):
            right_row = int(right_row)
            if int(best_left_for_right[right_row]) != left_row:
                continue
            if cross[left_row, right_row] >= threshold:
                pairs.append((left_refs[left_row], right_refs[right_row]))
        return pairs
