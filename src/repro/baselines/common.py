"""Shared helpers for the baseline matchers.

Baselines embed entities with the *vanilla* representation (no attribute
selection) — the enhanced representation is MultiEM's contribution and must
not leak into its competitors.
"""

from __future__ import annotations

import numpy as np

from ..config import RepresentationConfig
from ..core.representation import EmbeddingStore, EntityRepresenter, TableEmbeddings
from ..data.dataset import MultiTableDataset
from ..data.entity import EntityRef
from ..data.serialization import serialize_entity
from ..text.tokenizer import text_ngrams, word_tokens


def vanilla_embeddings(
    dataset: MultiTableDataset, *, dimension: int = 384, seed: int = 0
) -> tuple[dict[str, TableEmbeddings], EmbeddingStore]:
    """Embed every table with the plain (non-enhanced) representation."""
    config = RepresentationConfig(attribute_selection=False, dimension=dimension, seed=seed)
    representer = EntityRepresenter(config)
    embeddings = representer.encode_dataset(dataset)
    return embeddings, EmbeddingStore.from_embeddings(embeddings)


def jaccard(a: set[str], b: set[str]) -> float:
    """Jaccard similarity of two token sets (0 when both are empty)."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def pair_features(
    left_vector: np.ndarray,
    right_vector: np.ndarray,
    left_text: str,
    right_text: str,
) -> np.ndarray:
    """Compact feature vector describing one candidate pair.

    Features: embedding cosine similarity, embedding euclidean distance,
    word-token Jaccard, character-3-gram Jaccard, relative length difference,
    and a constant bias term. This is the stand-in for the learned pair
    representation of the supervised PLM matchers.
    """
    cosine = float(np.dot(left_vector, right_vector))
    euclid = float(np.linalg.norm(left_vector - right_vector))
    left_tokens, right_tokens = set(word_tokens(left_text)), set(word_tokens(right_text))
    token_jaccard = jaccard(left_tokens, right_tokens)
    gram_jaccard = jaccard(set(text_ngrams(left_text, 3, 3)), set(text_ngrams(right_text, 3, 3)))
    max_len = max(len(left_text), len(right_text), 1)
    length_diff = abs(len(left_text) - len(right_text)) / max_len
    return np.array([cosine, euclid, token_jaccard, gram_jaccard, length_diff, 1.0], dtype=np.float64)


def serialized_lookup(dataset: MultiTableDataset) -> dict[EntityRef, str]:
    """Serialized text of every entity (all attributes, no selection)."""
    texts: dict[EntityRef, str] = {}
    for table in dataset.table_list():
        for entity in table.entities():
            texts[entity.ref] = serialize_entity(entity)
    return texts
