"""Embedding substrate: the Sentence-BERT substitute and the medoid pooling ablation.

:class:`HashedNGramEncoder` is the one sentence encoder. It runs on the
columnar CSR token layout from :mod:`repro.text.tokenizer`: one flat token
array plus per-text offsets per corpus. Tokens are de-duplicated corpus-wide,
each unique token's vector/weight is built once, and pooling is a
size-bucketed CSR-weighted segment sum — byte-identical to per-text encoding
but one numpy pass per distinct text length. ``encode_token_ids`` exposes the
pooling kernel over a caller-supplied vocabulary (Algorithm 1 feeds it
integer splices of a shared column token index). :class:`CachingEncoder`
wraps it with an exact-text cache for callers that encode raw texts.
"""

from .base import normalize_rows
from .cache import CachingEncoder
from .hashed import HashedNGramEncoder
from .pooling import medoid_pool

__all__ = [
    "normalize_rows",
    "HashedNGramEncoder",
    "CachingEncoder",
    "medoid_pool",
]
