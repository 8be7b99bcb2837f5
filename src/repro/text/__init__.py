"""Text substrate: normalization, tokenizers, vocabulary, hashing.

The corpus-level batch entry point :func:`word_tokens_batch` tokenizes whole
lists into a flat CSR :class:`TokenTable` (one token array + per-text
offsets); the hashed encoder and Algorithm 1 run off that columnar layout.
"""

from .hashing import bucket, fnv1a_64, signed_bucket
from .tokenizer import (
    TokenTable,
    char_ngrams,
    normalize,
    text_ngrams,
    truncate_tokens,
    word_tokens,
    word_tokens_batch,
)
from .vocab import Vocabulary

__all__ = [
    "normalize",
    "word_tokens",
    "word_tokens_batch",
    "TokenTable",
    "char_ngrams",
    "text_ngrams",
    "truncate_tokens",
    "Vocabulary",
    "fnv1a_64",
    "bucket",
    "signed_bucket",
]
