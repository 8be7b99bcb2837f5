"""Byte-identity regressions for the array-backed HNSW refactor.

The expected values below were captured from the original dict-backed
implementation (the v0 seed) on a fixed dataset and seed. The array-backed
index, the prepared distance kernels, and incremental ``extend`` must all
reproduce them bit for bit — approximate agreement is not enough, because the
merging stage's pair output is required to be identical across the refactor.
"""

import numpy as np
import pytest

from repro.ann import HNSWIndex
from repro.ann.distances import PreparedVectors, distance_matrix

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


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_prepared_kernels_bitwise_match_distance_matrix(metric):
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(300, 40)).astype(np.float32)
    vectors[11] = 0.0  # zero rows take the norm-guard path
    queries = rng.normal(size=(25, 40)).astype(np.float32)
    prepared = PreparedVectors(vectors, metric)
    prepared_queries = prepared.prepare_queries(queries)
    assert np.array_equal(
        prepared.block_distances(prepared_queries), distance_matrix(queries, vectors, metric)
    )
    rows = rng.integers(0, 300, size=17)
    for q in range(5):
        expected = distance_matrix(queries[q][None, :], vectors[rows], metric)[0]
        assert np.array_equal(prepared.row_distances(prepared_queries[q], rows), expected)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_prepared_append_matches_full_preparation(metric):
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(120, 24)).astype(np.float32)
    whole = PreparedVectors(vectors, metric)
    grown = PreparedVectors(vectors[:70], metric)
    grown.append(vectors[70:])
    queries = grown.prepare_queries(vectors[:9])
    assert np.array_equal(grown.block_distances(queries), whole.block_distances(queries))


def test_extend_is_byte_identical_to_full_build(fixture_vectors):
    full = HNSWIndex(seed=9).build(fixture_vectors)
    extended = HNSWIndex(seed=9).build(fixture_vectors[:180]).extend(fixture_vectors[180:])
    full_idx, full_dist = full.query(fixture_vectors[:30], 4)
    ext_idx, ext_dist = extended.query(fixture_vectors[:30], 4)
    assert np.array_equal(full_idx, ext_idx)
    assert np.array_equal(full_dist, ext_dist)


def test_extend_on_unbuilt_index_builds(fixture_vectors):
    index = HNSWIndex(seed=1).extend(fixture_vectors[:50])
    assert index.size == 50
    reference = HNSWIndex(seed=1).build(fixture_vectors[:50])
    left, _ = index.query(fixture_vectors[:10], 3)
    right, _ = reference.query(fixture_vectors[:10], 3)
    assert np.array_equal(left, right)


def test_extend_dimension_mismatch_raises(fixture_vectors):
    from repro.exceptions import IndexError_

    index = HNSWIndex(seed=0).build(fixture_vectors[:40])
    with pytest.raises(IndexError_):
        index.extend(np.ones((3, 7), dtype=np.float32))
