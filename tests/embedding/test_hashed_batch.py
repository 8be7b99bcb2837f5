"""The batch CSR encoder must be byte-identical to the per-text reference.

The reference below is the pre-columnar implementation verbatim: per text,
tokenize, truncate, weight per token, then a sequential
``pooled += weight * vector`` accumulation. The batch path (corpus-wide
sort-free dedup + size-bucketed CSR segment sums) must reproduce every
float bit of it.
"""

import numpy as np
import pytest

from repro.embedding.base import normalize_rows
from repro.embedding.hashed import HashedNGramEncoder
from repro.text.tokenizer import truncate_tokens, word_tokens, word_tokens_batch


def encode_reference(encoder: HashedNGramEncoder, texts) -> np.ndarray:
    """The historical per-text encode loop, bit for bit."""
    matrix = np.zeros((len(texts), encoder.dimension), dtype=np.float32)
    for row, text in enumerate(texts):
        tokens = truncate_tokens(word_tokens(text), encoder.max_tokens)
        if not tokens:
            continue
        weights = np.array([encoder._token_weight_for(t) for t in tokens], dtype=np.float32)
        total = float(weights.sum())
        if total <= 0:
            weights = np.ones(len(tokens), dtype=np.float32)
            total = float(len(tokens))
        pooled = np.zeros(encoder.dimension, dtype=np.float32)
        for token, weight in zip(tokens, weights):
            pooled += weight * encoder._token_vector(token)
        matrix[row] = pooled / total
    return normalize_rows(matrix)


def _corpus(seed: int, size: int, max_len: int) -> list[str]:
    rng = np.random.default_rng(seed)
    words = ["apple", "banana", "cherry", "42", "2020", "id7", "deluxe", "remaster", "x1", "3.5"]
    corpus = []
    for _ in range(size):
        count = int(rng.integers(0, max_len))
        corpus.append(" ".join(rng.choice(words, size=count).tolist()))
    return corpus


@pytest.mark.parametrize("use_idf", [True, False])
def test_encode_matches_reference(use_idf):
    corpus = _corpus(0, 200, 30) + ["", "   ", "Café déjà 5.5"]
    encoder = HashedNGramEncoder(dimension=64, use_idf=use_idf).fit(corpus)
    assert np.array_equal(encoder.encode(corpus), encode_reference(encoder, corpus))


def test_encode_truncates_at_max_tokens():
    corpus = _corpus(1, 60, 40)  # many rows exceed max_tokens=8
    encoder = HashedNGramEncoder(dimension=32, max_tokens=8).fit(corpus)
    assert np.array_equal(encoder.encode(corpus), encode_reference(encoder, corpus))


def test_encode_empty_and_all_numeric_texts():
    corpus = ["", "   ", "12345", "000 111 222", "9.99", "id42"]
    encoder = HashedNGramEncoder(dimension=48, numeric_weight_floor=0.2).fit(corpus)
    got = encoder.encode(corpus)
    assert np.array_equal(got, encode_reference(encoder, corpus))
    assert np.all(got[0] == 0) and np.all(got[1] == 0)  # empty texts stay zero rows


def test_encode_without_fit_matches_reference():
    corpus = _corpus(2, 40, 10)
    encoder = HashedNGramEncoder(dimension=32)  # no fit: uniform IDF
    assert np.array_equal(encoder.encode(corpus), encode_reference(encoder, corpus))


def test_encode_token_table_entry_point():
    corpus = _corpus(3, 50, 12)
    encoder = HashedNGramEncoder(dimension=32).fit(corpus)
    table = word_tokens_batch(corpus)
    assert np.array_equal(encoder.encode_token_table(table), encoder.encode(corpus))


def test_encode_token_ids_applies_encoder_truncation():
    corpus = _corpus(4, 30, 25)
    encoder = HashedNGramEncoder(dimension=32, max_tokens=5).fit(corpus)
    table = word_tokens_batch(corpus)
    unique, inverse = np.unique(table.tokens, return_inverse=True)
    vectors, weights = encoder.token_vectors_and_weights(unique.tolist())
    got = encoder.encode_token_ids(
        np.asarray(inverse, dtype=np.int64), table.counts, vectors, weights
    )
    assert np.array_equal(got, encode_reference(encoder, corpus))


def test_batch_counters_track_fast_path():
    encoder = HashedNGramEncoder(dimension=16)
    assert encoder.batch_encodes == 0 and encoder.tokens_pooled == 0
    encoder.encode(["a b c", "d"])
    assert encoder.batch_encodes == 1
    assert encoder.tokens_pooled == 4


def test_pooling_blocks_are_value_neutral(monkeypatch):
    """Tiny pool blocks (forcing many sub-blocks per bucket) change nothing."""
    import repro.embedding.hashed as hashed_module

    corpus = _corpus(5, 80, 20)
    encoder = HashedNGramEncoder(dimension=32).fit(corpus)
    full = encoder.encode(corpus)
    monkeypatch.setattr(hashed_module, "_POOL_BLOCK_ELEMENTS", 64)
    assert np.array_equal(encoder.encode(corpus), full)


def test_zero_weights_fall_back_to_uniform_pooling():
    """All-zero pooling weights trigger the historical uniform-mean fallback."""
    encoder = HashedNGramEncoder(dimension=16)
    table = word_tokens_batch(["a b", "c"])
    unique, inverse = np.unique(table.tokens, return_inverse=True)
    vectors, _ = encoder.token_vectors_and_weights(unique.tolist())
    zero_weights = np.zeros(len(unique), dtype=np.float32)
    got = encoder.encode_token_ids(
        np.asarray(inverse, dtype=np.int64), table.counts, vectors, zero_weights
    )
    expected = np.zeros((2, 16), dtype=np.float32)
    expected[0] = (vectors[inverse[0]] + vectors[inverse[1]]) / 2.0
    expected[1] = vectors[inverse[2]] / 1.0
    assert np.array_equal(got, normalize_rows(expected))


def test_empty_token_table_encodes_to_zeros():
    encoder = HashedNGramEncoder(dimension=16)
    table = word_tokens_batch(["", ""])
    assert np.array_equal(encoder.encode_token_table(table), np.zeros((2, 16), dtype=np.float32))
    assert encoder.encode([]).shape == (0, 16)
