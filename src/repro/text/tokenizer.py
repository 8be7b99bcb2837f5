"""Text normalization and tokenization.

Two tokenizers are provided:

* :func:`word_tokens` — whitespace/punctuation word tokens, used by TF-IDF.
* :func:`char_ngrams` — character n-grams with word-boundary markers, used by
  the hashed n-gram encoder. Character n-grams are what make the embedding
  robust to the typos and abbreviations the corruption model (and real data)
  introduce.

The corpus-level batch API backs the columnar text substrate:
:func:`word_tokens_batch` tokenizes a whole corpus into a
:class:`TokenTable`, a flat CSR token table: one flat token array plus
per-text offsets (``tokens[offsets[i]:offsets[i + 1]]`` are text ``i``'s
tokens, in order). The corpus is joined and normalized in one pass and the
regex scan runs offset-windowed over that single flat string, so no per-text
intermediate strings are materialized on the ASCII path. Its tokens are
byte-identical to :func:`word_tokens`' (property-tested), which the hashed
encoder and Algorithm 1 rely on for end-to-end byte identity.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:\.[0-9]+)?")

#: Joins texts during batch processing. Any non-token character works here:
#: tokens cannot span it, and per-text spans are recovered from offsets (not
#: by splitting), so texts that themselves contain newlines stay correct.
_BATCH_SEPARATOR = "\n"


def normalize(text: str) -> str:
    """Lowercase, strip accents, and collapse whitespace."""
    text = unicodedata.normalize("NFKD", text)
    text = "".join(c for c in text if not unicodedata.combining(c))
    return " ".join(text.lower().split())


def word_tokens(text: str) -> list[str]:
    """Split normalized text into alphanumeric word tokens."""
    return _TOKEN_PATTERN.findall(normalize(text))


@dataclass
class TokenTable:
    """Flat CSR token table over a corpus of texts.

    Attributes:
        tokens: flat 1-d object array of token strings, all texts
            concatenated in text order.
        offsets: ``(num_texts + 1,)`` int64 array; text ``i`` owns
            ``tokens[offsets[i]:offsets[i + 1]]``.
    """

    tokens: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        """Per-text token counts (int64)."""
        return np.diff(self.offsets)

    def row(self, i: int) -> list[str]:
        """Tokens of text ``i`` as a plain list."""
        return self.tokens[self.offsets[i] : self.offsets[i + 1]].tolist()

    @classmethod
    def concat(cls, tables: Sequence["TokenTable"]) -> "TokenTable":
        """Concatenate tables corpus-wise (texts keep their per-table order)."""
        if not tables:
            return cls(tokens=np.empty(0, dtype=object), offsets=np.zeros(1, dtype=np.int64))
        tokens = np.concatenate([table.tokens for table in tables])
        parts = [np.zeros(1, dtype=np.int64)]
        base = np.int64(0)
        for table in tables:
            parts.append(table.offsets[1:] + base)
            base += table.offsets[-1]
        return cls(tokens=tokens, offsets=np.concatenate(parts))


def _batch_corpus(texts: Sequence[str]) -> tuple[str, list[int]]:
    """Join + normalize a corpus in one pass; returns ``(corpus, lengths)``.

    ``corpus`` is the separator-joined, tokenizer-normalized flat string and
    ``lengths`` the per-text span lengths inside it. On the (overwhelmingly
    common) ASCII path NFKD and combining-mark removal are identities, so one
    ``str.lower`` over the flat string replaces all per-character work; the
    Unicode fallback normalizes per text to keep spans aligned. Whitespace is
    *not* collapsed — the token pattern never matches whitespace, so token
    output is unaffected (and byte-identical to :func:`word_tokens`).
    """
    joined = _BATCH_SEPARATOR.join(texts)
    if joined.isascii():
        return joined.lower(), [len(text) for text in texts]
    parts: list[str] = []
    for text in texts:
        nfkd = unicodedata.normalize("NFKD", text)
        stripped = "".join(c for c in nfkd if not unicodedata.combining(c))
        parts.append(stripped.lower())
    return _BATCH_SEPARATOR.join(parts), [len(part) for part in parts]


def word_tokens_batch(texts: Sequence[str]) -> TokenTable:
    """:func:`word_tokens` over a whole corpus as a flat CSR :class:`TokenTable`.

    One normalization pass over the joined corpus, then one offset-windowed
    regex scan per text via ``Pattern.findall(corpus, start, end)`` — no
    per-text normalized strings are created on the ASCII path. Token output
    is byte-identical to ``[word_tokens(t) for t in texts]``.
    """
    num_texts = len(texts)
    offsets = np.zeros(num_texts + 1, dtype=np.int64)
    if num_texts == 0:
        return TokenTable(tokens=np.empty(0, dtype=object), offsets=offsets)
    corpus, lengths = _batch_corpus(texts)
    findall = _TOKEN_PATTERN.findall
    flat: list[str] = []
    start = 0
    for i, length in enumerate(lengths):
        row = findall(corpus, start, start + length)
        offsets[i + 1] = offsets[i] + len(row)
        flat.extend(row)
        start += length + 1  # skip the separator
    tokens = np.empty(len(flat), dtype=object)
    if flat:
        tokens[:] = flat
    return TokenTable(tokens=tokens, offsets=offsets)


def char_ngrams(token: str, n_min: int = 3, n_max: int = 5, *, boundary: bool = True) -> list[str]:
    """Character n-grams of one token, optionally padded with boundary markers.

    Short tokens (shorter than ``n_min``) are returned as a single padded
    gram so no token is dropped entirely.
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError("require 1 <= n_min <= n_max")
    padded = f"<{token}>" if boundary else token
    if len(padded) <= n_min:
        return [padded]
    grams: list[str] = []
    for n in range(n_min, n_max + 1):
        if n > len(padded):
            break
        grams.extend(padded[i : i + n] for i in range(len(padded) - n + 1))
    return grams


def text_ngrams(text: str, n_min: int = 3, n_max: int = 5) -> list[str]:
    """All character n-grams of all word tokens of ``text``."""
    grams: list[str] = []
    for token in word_tokens(text):
        grams.extend(char_ngrams(token, n_min, n_max))
    return grams


def truncate_tokens(tokens: Iterable[str], max_tokens: int) -> list[str]:
    """Keep the first ``max_tokens`` tokens (paper caps sequences at 64)."""
    result: list[str] = []
    for token in tokens:
        if len(result) >= max_tokens:
            break
        result.append(token)
    return result
