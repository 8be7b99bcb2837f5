"""Vocabulary and document-frequency statistics over a corpus of texts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..arrays import dedup_sorted_keys, unique_inverse
from .tokenizer import TokenTable, word_tokens


@dataclass
class Vocabulary:
    """Token vocabulary with document frequencies.

    Built once over the serialized corpus for the SIF-style token weighting
    of the hashed encoder.
    """

    token_to_index: dict[str, int] = field(default_factory=dict)
    document_frequency: Counter = field(default_factory=Counter)
    num_documents: int = 0

    @classmethod
    def build(cls, texts: Iterable[str], min_df: int = 1) -> "Vocabulary":
        """Build a vocabulary from a corpus, dropping tokens rarer than ``min_df``."""
        df: Counter = Counter()
        num_documents = 0
        for text in texts:
            num_documents += 1
            for token in set(word_tokens(text)):
                df[token] += 1
        kept = sorted(token for token, count in df.items() if count >= min_df)
        return cls(
            token_to_index={token: i for i, token in enumerate(kept)},
            document_frequency=Counter({token: df[token] for token in kept}),
            num_documents=num_documents,
        )

    @classmethod
    def from_token_table(cls, table: TokenTable, min_df: int = 1) -> "Vocabulary":
        """Build a vocabulary from a pre-tokenized corpus (CSR token table).

        Identical to :meth:`build` over the originating texts: the sort-free
        :func:`~repro.arrays.unique_inverse`, then :meth:`from_token_ids`.
        """
        return cls.from_token_ids(*unique_inverse(table.tokens), table.counts, min_df)

    @classmethod
    def from_token_ids(cls, tokens, token_ids, counts, min_df: int = 1) -> "Vocabulary":
        """Build a vocabulary from ``unique_inverse`` output plus per-text ``counts``.

        Document frequencies count distinct texts per token, (text, token)
        pairs de-duplicated by :func:`~repro.arrays.dedup_sorted_keys`; the
        kept tokens stay in sorted order.
        """
        num_documents = len(counts)
        if token_ids.size == 0:
            return cls(num_documents=num_documents)
        vocabulary_size = np.int64(len(tokens))
        text_ids = np.repeat(np.arange(num_documents, dtype=np.int64), counts)
        # One (text, token) pair per distinct occurrence; df = pairs per token.
        pair_keys = dedup_sorted_keys(text_ids * vocabulary_size + token_ids)
        df_counts = np.bincount(pair_keys % vocabulary_size, minlength=len(tokens))
        kept = np.flatnonzero(df_counts >= min_df)
        kept_tokens = [str(tokens[i]) for i in kept]
        return cls(
            token_to_index={token: i for i, token in enumerate(kept_tokens)},
            document_frequency=Counter(
                {token: int(df_counts[i]) for token, i in zip(kept_tokens, kept)}
            ),
            num_documents=num_documents,
        )

    def __len__(self) -> int:
        return len(self.token_to_index)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index(self, token: str) -> int | None:
        """Index of ``token`` or ``None`` if out of vocabulary."""
        return self.token_to_index.get(token)

    def idf(self, token: str, *, smooth: bool = True) -> float:
        """Inverse document frequency of ``token`` (smoothed by default)."""
        df = self.document_frequency.get(token, 0)
        if smooth:
            return float(np.log((1 + self.num_documents) / (1 + df)) + 1.0)
        if df == 0:
            return 0.0
        return float(np.log(self.num_documents / df))
