"""Byte-identity regressions for the array-backed HNSW refactor.

The expected values below were captured from the original dict-backed
implementation (the v0 seed) on a fixed dataset and seed. The array-backed
index and the prepared distance kernels must both reproduce them bit for bit — approximate agreement is not enough, because the
merging stage's pair output is required to be identical across the refactor.
"""

import numpy as np
import pytest

from repro.ann import HNSWIndex
from repro.ann.distances import PreparedVectors, distance_matrix

#: The indexes' one metric, still a parameter so these test ids name it.
METRICS = ("cosine",)

# Captured from the seed implementation: HNSWIndex(max_degree=8,
# ef_construction=40, ef_search=24, seed=5) over 300 unit-normalized
# gaussian vectors (rng seed 42), querying the first 40 with k=5.
SEED_FIRST_FIVE_ROWS = [
    [0, 260, 53, 278, 132],
    [1, 47, 183, 119, 12],
    [2, 17, 244, 45, 169],
    [3, 115, 266, 114, 167],
    [4, 84, 145, 219, 11],
]
SEED_INDEX_CHECKSUM = 25080
SEED_DISTANCE_SUM = 103.53058964014053
SEED_FIRST_ROW_DISTANCES = [
    5.960464477539063e-08,
    0.620287299156189,
    0.6340647339820862,
    0.6379314661026001,
    0.6630402207374573,
]


@pytest.fixture(scope="module")
def fixture_vectors() -> np.ndarray:
    rng = np.random.default_rng(42)
    vectors = rng.normal(size=(300, 48)).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def test_query_results_match_seed_implementation(fixture_vectors):
    index = HNSWIndex(max_degree=8, ef_construction=40, ef_search=24, seed=5).build(fixture_vectors)
    indices, distances = index.query(fixture_vectors[:40], 5)
    assert indices[:5].tolist() == SEED_FIRST_FIVE_ROWS
    assert int(indices.sum()) == SEED_INDEX_CHECKSUM
    finite = distances[np.isfinite(distances)]
    assert float(finite.sum()) == SEED_DISTANCE_SUM  # exact, not approximate
    assert [float(x) for x in distances[0]] == SEED_FIRST_ROW_DISTANCES


@pytest.mark.parametrize("metric", METRICS)
def test_prepared_kernels_bitwise_match_distance_matrix(metric):
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(300, 40)).astype(np.float32)
    vectors[11] = 0.0  # zero rows take the norm-guard path
    queries = rng.normal(size=(25, 40)).astype(np.float32)
    prepared = PreparedVectors(vectors)
    prepared_queries = prepared.prepare_queries(queries)
    assert np.array_equal(
        prepared.block_distances(prepared_queries), distance_matrix(queries, vectors, metric)
    )
    rows = rng.integers(0, 300, size=17)
    for q in range(5):
        expected = distance_matrix(queries[q][None, :], vectors[rows], metric)[0]
        assert np.array_equal(prepared.row_distances(prepared_queries[q], rows), expected)
