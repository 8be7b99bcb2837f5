"""Embedding substrate: Sentence-BERT substitutes and the medoid pooling ablation.

The default :class:`HashedNGramEncoder` runs on the columnar CSR token
layout from :mod:`repro.text.tokenizer`: one flat token array plus per-text
offsets per corpus. Tokens are de-duplicated corpus-wide, each unique
token's vector/weight is built once, and pooling is a size-bucketed
CSR-weighted segment sum — byte-identical to per-text encoding but one
numpy pass per distinct text length. ``encode_token_ids`` exposes the
pooling kernel over a caller-supplied vocabulary (Algorithm 1 feeds it
integer splices of a shared column token index).
"""

from .base import SentenceEncoder, normalize_rows
from .cache import CachingEncoder
from .hashed import HashedNGramEncoder
from .pooling import medoid_pool
from .random_projection import GaussianRandomProjection
from .svd import TfidfSvdEncoder

__all__ = [
    "SentenceEncoder",
    "normalize_rows",
    "HashedNGramEncoder",
    "TfidfSvdEncoder",
    "CachingEncoder",
    "GaussianRandomProjection",
    "medoid_pool",
]


def create_encoder(name: str, dimension: int = 384, seed: int = 0) -> SentenceEncoder:
    """Factory used by the pipeline configuration.

    Args:
        name: ``"hashed-ngram"`` or ``"tfidf-svd"``.
        dimension: embedding dimensionality.
        seed: determinism seed.
    """
    if name == "hashed-ngram":
        return HashedNGramEncoder(dimension=dimension, seed=seed)
    if name == "tfidf-svd":
        return TfidfSvdEncoder(dimension=dimension, seed=seed)
    raise ValueError(f"unknown encoder {name!r}")
