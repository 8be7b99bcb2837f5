"""Tests for repro.text vocabulary, TF-IDF, and hashing."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.text import Vocabulary, bucket, fnv1a_64, signed_bucket
from repro.text.tfidf import TfidfVectorizer, cosine_similarity_sparse


# ------------------------------------------------------------------ hashing
def test_fnv1a_deterministic_and_seed_sensitive():
    assert fnv1a_64("hello") == fnv1a_64("hello")
    assert fnv1a_64("hello") != fnv1a_64("hello", seed=1)
    assert fnv1a_64("hello") != fnv1a_64("hellp")


def test_bucket_range_and_validation():
    for token in ["a", "bb", "ccc", "1234", "日本語"]:
        assert 0 <= bucket(token, 16) < 16
    with pytest.raises(ValueError):
        bucket("x", 0)


def test_signed_bucket_sign_is_deterministic():
    index1, sign1 = signed_bucket("token", 64)
    index2, sign2 = signed_bucket("token", 64)
    assert (index1, sign1) == (index2, sign2)
    assert sign1 in (-1.0, 1.0)


# --------------------------------------------------------------- vocabulary
def test_vocabulary_build_document_frequencies():
    vocab = Vocabulary.build(["apple banana", "apple cherry", "apple"])
    assert vocab.num_documents == 3
    assert vocab.document_frequency["apple"] == 3
    assert vocab.document_frequency["banana"] == 1
    assert "apple" in vocab and "durian" not in vocab
    assert len(vocab) == 3


def test_vocabulary_min_df_filters_rare_tokens():
    vocab = Vocabulary.build(["a b", "a c", "a d"], min_df=2)
    assert "a" in vocab
    assert "b" not in vocab


def test_idf_monotonicity():
    vocab = Vocabulary.build(["common rare", "common", "common other"])
    assert vocab.idf("rare") > vocab.idf("common")
    # Unknown tokens get the highest (smoothed) weight.
    assert vocab.idf("unseen") >= vocab.idf("rare")


# ------------------------------------------------------------------- tfidf
def test_tfidf_fit_transform_shapes():
    corpus = ["apple iphone silver", "samsung galaxy black", "apple iphone gold"]
    vectorizer = TfidfVectorizer()
    matrix = vectorizer.fit(corpus).transform(corpus)
    assert matrix.shape == (3, len(vectorizer.vocabulary_))
    # Terms are the words' character 3- and 4-grams ("<" / ">" mark word edges).
    assert {"app", "appl", "er>"} <= set(vectorizer.vocabulary_)
    assert "apple" not in vectorizer.vocabulary_ and "ap" not in vectorizer.vocabulary_
    norms = np.asarray(np.sqrt(matrix.multiply(matrix).sum(axis=1))).ravel()
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-6)


def test_tfidf_similarity_orders_duplicates_first():
    corpus = [
        "apple iphone 8 plus 64gb silver",
        "apple iphone 8 plus 64 gb sv",
        "bosch washing machine 8kg",
    ]
    vectorizer = TfidfVectorizer()
    matrix = vectorizer.fit(corpus).transform(corpus)
    sims = cosine_similarity_sparse(matrix[0], matrix[1:])
    assert sims[0, 0] > sims[0, 1]


def test_tfidf_transform_before_fit_raises():
    with pytest.raises(DataError):
        TfidfVectorizer().transform(["x"])


def test_tfidf_empty_corpus_raises():
    with pytest.raises(DataError):
        TfidfVectorizer().fit([])


def test_tfidf_unknown_terms_produce_zero_rows():
    vectorizer = TfidfVectorizer()
    vectorizer.fit(["alpha beta", "gamma delta"])
    matrix = vectorizer.transform(["xyz qqq"])
    assert matrix.nnz == 0
