"""Property-based tests for numeric kernels: distances, encoders, indexes, pruning."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ann import BruteForceIndex, cosine_distance_matrix, euclidean_distance_matrix
from repro.clustering import dbscan
from repro.core.pruning import classify_entities
from repro.embedding import HashedNGramEncoder


finite_matrix = arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 8), st.integers(2, 6)),
    elements=st.floats(-5, 5, width=32, allow_nan=False, allow_infinity=False),
)


@given(matrix=finite_matrix)
@settings(max_examples=60, deadline=None)
def test_distance_matrices_are_well_behaved(matrix):
    cosine = cosine_distance_matrix(matrix, matrix)
    euclid = euclidean_distance_matrix(matrix, matrix)
    assert cosine.shape == (len(matrix), len(matrix))
    assert np.all(cosine >= -1e-6) and np.all(cosine <= 2 + 1e-6)
    assert np.all(euclid >= 0)
    # float32 + the expanded formula: self-distance noise grows with magnitude.
    assert np.allclose(np.diag(euclid), 0.0, atol=2e-2)
    assert np.allclose(euclid, euclid.T, atol=2e-2)
    assert np.allclose(cosine, cosine.T, atol=1e-5)


@given(matrix=finite_matrix, k=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_brute_force_query_invariants(matrix, k):
    index = BruteForceIndex().build(matrix)
    indices, distances = index.query(matrix, k)
    assert indices.shape == (len(matrix), k)
    self_distances = np.diag(cosine_distance_matrix(matrix, matrix))
    # Distances per row are sorted ascending (inf padding at the end).
    finite = np.where(np.isinf(distances), np.nan, distances)
    for row in range(len(matrix)):
        values = finite[row][~np.isnan(finite[row])]
        assert np.all(np.diff(values) >= -1e-5)
        assert np.all((values >= 0) & (values <= 2))
        # The nearest neighbour is never farther than the row itself (a zero
        # row is at cosine distance 1 from everything, itself included).
        assert distances[row, 0] <= self_distances[row]


texts_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", min_size=0, max_size=40),
    min_size=1,
    max_size=10,
)


@given(texts=texts_strategy)
@settings(max_examples=40, deadline=None)
def test_encoder_output_invariants(texts):
    encoder = HashedNGramEncoder(dimension=64)
    vectors = encoder.encode(texts)
    assert vectors.shape == (len(texts), 64)
    norms = np.linalg.norm(vectors, axis=1)
    assert np.all((np.isclose(norms, 1.0, atol=1e-4)) | (norms == 0.0))
    # Determinism.
    again = HashedNGramEncoder(dimension=64).encode(texts)
    assert np.allclose(vectors, again)


cluster_points = arrays(
    dtype=np.float32,
    shape=st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(-3, 3, width=32, allow_nan=False, allow_infinity=False),
)


@given(points=cluster_points, epsilon=st.floats(0.1, 2.0), min_pts=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_classification_partitions_members(points, epsilon, min_pts):
    result = classify_entities(points, epsilon=epsilon, min_pts=min_pts)
    all_indices = sorted(result.core + result.reachable + result.outliers)
    assert all_indices == list(range(len(points)))
    # Core, reachable, outlier sets are pairwise disjoint.
    assert not (set(result.core) & set(result.reachable))
    assert not (set(result.core) & set(result.outliers))
    assert not (set(result.reachable) & set(result.outliers))


@given(points=cluster_points, epsilon=st.floats(0.1, 2.0), min_pts=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_dbscan_and_classification_agree_on_core_points(points, epsilon, min_pts):
    clustering = dbscan(points, epsilon=epsilon, min_pts=min_pts)
    classification = classify_entities(points, epsilon=epsilon, min_pts=min_pts)
    assert set(np.flatnonzero(clustering.core_mask).tolist()) == set(classification.core)
