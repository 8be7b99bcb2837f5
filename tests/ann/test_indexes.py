"""Tests for the ANN indexes: brute force, HNSW."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex
from repro.exceptions import IndexError_


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(200, 32)).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


class TestBruteForce:
    def test_query_before_build_raises(self):
        with pytest.raises(IndexError_):
            BruteForceIndex().query(np.zeros((1, 4)), 1)

    def test_invalid_parameters(self, points):
        with pytest.raises(IndexError_):
            BruteForceIndex(batch_size=0)
        index = BruteForceIndex().build(points)
        with pytest.raises(IndexError_):
            index.query(points[:1], 0)
        with pytest.raises(IndexError_):
            BruteForceIndex().build(np.zeros(5))

    def test_self_query_returns_self_first(self, points):
        index = BruteForceIndex().build(points)
        indices, distances = index.query(points[:10], 1)
        assert np.array_equal(indices[:, 0], np.arange(10))
        # float32 rounding of 1 - <a, a> leaves a few ulp
        assert np.allclose(distances[:, 0], 0.0, atol=1e-6)

    def test_k_larger_than_index_pads(self, points):
        index = BruteForceIndex().build(points[:3])
        indices, distances = index.query(points[:2], 5)
        assert indices.shape == (2, 5)
        assert np.all(indices[:, 3:] == -1)
        assert np.all(np.isinf(distances[:, 3:]))

    def test_results_sorted_by_distance(self, points):
        index = BruteForceIndex().build(points)
        _, distances = index.query(points[:5], 10)
        assert np.all(np.diff(distances[:, :10], axis=1) >= -1e-6)

    def test_batched_queries_match_unbatched(self, points):
        big = BruteForceIndex(batch_size=7).build(points)
        small = BruteForceIndex(batch_size=1000).build(points)
        i1, d1 = big.query(points[:20], 3)
        i2, d2 = small.query(points[:20], 3)
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2, atol=1e-5)


class TestHNSW:
    def test_exactness_on_small_data(self, points):
        subset = points[:50]
        exact = BruteForceIndex().build(subset)
        hnsw = HNSWIndex(ef_search=64, seed=0).build(subset)
        exact_idx, _ = exact.query(subset, 1)
        hnsw_idx, _ = hnsw.query(subset, 1)
        agreement = float(np.mean(exact_idx[:, 0] == hnsw_idx[:, 0]))
        assert agreement >= 0.95

    def test_recall_at_10_reasonable(self, points):
        exact = BruteForceIndex().build(points)
        hnsw = HNSWIndex(ef_search=80, ef_construction=120, seed=1).build(points)
        exact_idx, _ = exact.query(points[:50], 10)
        hnsw_idx, _ = hnsw.query(points[:50], 10)
        recalls = [
            len(set(exact_idx[i]) & set(hnsw_idx[i])) / 10 for i in range(50)
        ]
        assert float(np.mean(recalls)) >= 0.8

    def test_empty_index_query(self):
        index = HNSWIndex()
        index.build(np.zeros((0, 8), dtype=np.float32))
        indices, distances = index.query(np.zeros((2, 8), dtype=np.float32), 3)
        assert np.all(indices == -1)
        assert np.all(np.isinf(distances))

    def test_single_point_index(self):
        index = HNSWIndex().build(np.ones((1, 4), dtype=np.float32))
        indices, distances = index.query(np.ones((1, 4), dtype=np.float32), 2)
        assert indices[0, 0] == 0
        assert indices[0, 1] == -1

    def test_determinism_given_seed(self, points):
        a = HNSWIndex(seed=7).build(points[:80])
        b = HNSWIndex(seed=7).build(points[:80])
        ia, _ = a.query(points[:10], 3)
        ib, _ = b.query(points[:10], 3)
        assert np.array_equal(ia, ib)

    def test_invalid_parameters(self):
        with pytest.raises(IndexError_):
            HNSWIndex(max_degree=1)
        with pytest.raises(IndexError_):
            HNSWIndex(ef_construction=0)
        index = HNSWIndex().build(np.ones((2, 4), dtype=np.float32))
        with pytest.raises(IndexError_):
            index.query(np.ones((1, 4)), 0)



@pytest.mark.parametrize("index_class", [BruteForceIndex, HNSWIndex], ids=["brute-force", "hnsw"])
@pytest.mark.parametrize(
    "shape, message",
    [
        ((3, 4), "cannot query a 8-d index with 4-d vectors"),
        ((3, 12), "cannot query a 8-d index with 12-d vectors"),
        ((8,), "expected a 2-d array of vectors"),
    ],
    ids=["narrower", "wider", "1-d"],
)
def test_a_mis_shaped_query_is_refused_by_name(index_class, shape, message):
    """Query rows are checked before any preparation; ``(0, d)`` still answers."""
    rng = np.random.default_rng(5)
    index = index_class().build(rng.normal(size=(50, 8)).astype(np.float32))
    with pytest.raises(IndexError_, match=message):
        index.query(rng.normal(size=shape).astype(np.float32), 2)
    indices, distances = index.query(np.zeros((0, 8), dtype=np.float32), 2)
    assert indices.shape == distances.shape == (0, 2)
