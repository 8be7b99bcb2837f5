"""Tests for the sentence encoder (the Sentence-BERT substitute) and its text cache."""

import numpy as np
import pytest

from repro.embedding import CachingEncoder, HashedNGramEncoder, normalize_rows
from repro.exceptions import ConfigurationError


CORPUS = [
    "apple iphone 8 plus 64gb silver",
    "apple iphone 8 plus 5.5 64 gb sv unlocked",
    "samsung galaxy s10 128gb prism black",
    "bosch serie 4 washing machine 8kg",
    "logitech mx master 3 wireless mouse graphite",
    "canon eos 2000d dslr camera kit",
]


def test_normalize_rows_unit_norm_and_zero_rows():
    matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
    normalized = normalize_rows(matrix)
    assert np.isclose(np.linalg.norm(normalized[0]), 1.0)
    assert np.allclose(normalized[1], 0.0)


class TestHashedNGramEncoder:
    def test_output_shape_and_norm(self):
        encoder = HashedNGramEncoder(dimension=128)
        vectors = encoder.encode(CORPUS)
        assert vectors.shape == (len(CORPUS), 128)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_empty_text_maps_to_zero(self):
        encoder = HashedNGramEncoder(dimension=64)
        vectors = encoder.encode(["", "word"])
        assert np.allclose(vectors[0], 0.0)
        assert np.linalg.norm(vectors[1]) > 0

    def test_deterministic_across_instances(self):
        a = HashedNGramEncoder(dimension=64, seed=5).encode(CORPUS)
        b = HashedNGramEncoder(dimension=64, seed=5).encode(CORPUS)
        assert np.allclose(a, b)

    def test_seed_changes_embedding(self):
        a = HashedNGramEncoder(dimension=64, seed=0).encode(["apple iphone"])
        b = HashedNGramEncoder(dimension=64, seed=1).encode(["apple iphone"])
        assert not np.allclose(a, b)

    def test_variants_closer_than_unrelated(self):
        encoder = HashedNGramEncoder(dimension=256)
        encoder.fit(CORPUS)
        vectors = encoder.encode(CORPUS)
        sim_variant = float(vectors[0] @ vectors[1])
        sim_unrelated = float(vectors[0] @ vectors[3])
        assert sim_variant > sim_unrelated + 0.2

    def test_typo_robustness(self):
        encoder = HashedNGramEncoder(dimension=256)
        clean, typo, other = encoder.encode(
            ["logitech wireless mouse", "logitceh wirelss mouse", "canon camera kit"]
        )
        assert float(clean @ typo) > float(clean @ other)

    def test_numeric_tokens_are_downweighted(self):
        encoder = HashedNGramEncoder(dimension=256)
        base, changed_id, changed_word = encoder.encode(
            ["megna s tim obrien 14513028", "megna s tim obrien 94369364", "megna s bob dylan 14513028"]
        )
        # Changing the opaque number moves the embedding less than changing a word
        # (the paper's Example 1 behaviour).
        assert float(base @ changed_id) > float(base @ changed_word)

    def test_numeric_floor_disabled_removes_downweighting(self):
        encoder = HashedNGramEncoder(dimension=256, numeric_weight_floor=1.0)
        base, changed_id = encoder.encode(
            ["megna tim obrien 14513028", "megna tim obrien 94369364"]
        )
        encoder_weighted = HashedNGramEncoder(dimension=256)
        base_w, changed_id_w = encoder_weighted.encode(
            ["megna tim obrien 14513028", "megna tim obrien 94369364"]
        )
        assert float(base_w @ changed_id_w) > float(base @ changed_id)

    def test_max_tokens_truncation(self):
        encoder = HashedNGramEncoder(dimension=64, max_tokens=2)
        a, b = encoder.encode(["alpha beta gamma delta", "alpha beta zz yy"])
        assert np.allclose(a, b)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            HashedNGramEncoder(dimension=0)
        with pytest.raises(ConfigurationError):
            HashedNGramEncoder(max_tokens=0)
        with pytest.raises(ConfigurationError):
            HashedNGramEncoder(numeric_weight_floor=0.0)

    def test_idf_weighting_changes_result_after_fit(self):
        encoder = HashedNGramEncoder(dimension=128)
        before = encoder.encode(["apple iphone silver"])
        encoder.fit(CORPUS * 3)
        after = encoder.encode(["apple iphone silver"])
        assert not np.allclose(before, after)


class TestCachingEncoder:
    def test_cache_hits_and_consistency(self):
        inner = HashedNGramEncoder(dimension=64)
        cached = CachingEncoder(inner)
        first = cached.encode(["apple iphone", "samsung galaxy"])
        second = cached.encode(["apple iphone", "samsung galaxy"])
        assert np.allclose(first, second)
        assert cached.hits == 2
        assert cached.misses == 2

    def test_cache_clear(self):
        cached = CachingEncoder(HashedNGramEncoder(dimension=32))
        cached.encode(["a"])
        cached.clear()
        assert cached.hits == 0 and cached.misses == 0

    def test_fit_clears_cache(self):
        cached = CachingEncoder(HashedNGramEncoder(dimension=32))
        cached.encode(["apple"])
        cached.fit(CORPUS)
        cached.encode(["apple"])
        # After refit the cache was cleared, so the second call is a miss again.
        assert cached.misses == 2

    def test_matches_inner_encoder(self):
        inner = HashedNGramEncoder(dimension=64)
        cached = CachingEncoder(HashedNGramEncoder(dimension=64))
        assert np.allclose(cached.encode(CORPUS), inner.encode(CORPUS))
