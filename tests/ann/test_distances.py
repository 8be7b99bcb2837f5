"""Tests for repro.ann.distances."""

import numpy as np
import pytest

from repro.ann import (
    cosine_distance_matrix,
    distance_matrix,
    euclidean_distance_matrix,
    pairwise_distances,
)
from repro.exceptions import ConfigurationError


def test_cosine_distance_identical_and_orthogonal():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    distances = cosine_distance_matrix(a, a)
    assert np.isclose(distances[0, 0], 0.0)
    assert np.isclose(distances[0, 1], 1.0)


def test_cosine_distance_opposite_vectors():
    a = np.array([[1.0, 0.0]])
    b = np.array([[-1.0, 0.0]])
    assert np.isclose(cosine_distance_matrix(a, b)[0, 0], 2.0)


def test_cosine_distance_zero_vector_handled():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    assert np.isclose(cosine_distance_matrix(a, b)[0, 0], 1.0)


def test_euclidean_matches_direct_computation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 8))
    b = rng.normal(size=(6, 8))
    matrix = euclidean_distance_matrix(a, b)
    for i in range(4):
        for j in range(6):
            assert np.isclose(matrix[i, j], np.linalg.norm(a[i] - b[j]), atol=1e-4)


def test_euclidean_never_negative_under_rounding():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    matrix = euclidean_distance_matrix(a, a)
    assert np.all(matrix >= 0)


def test_distance_matrix_dispatch_and_validation():
    a = np.eye(2)
    assert np.allclose(distance_matrix(a, a, "cosine"), cosine_distance_matrix(a, a))
    assert np.allclose(distance_matrix(a, a, "euclidean"), euclidean_distance_matrix(a, a))
    with pytest.raises(ConfigurationError):
        distance_matrix(a, a, "manhattan")


def test_pairwise_distances_symmetric_zero_diagonal():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(5, 4))
    matrix = pairwise_distances(vectors, "euclidean")
    assert np.allclose(matrix, matrix.T, atol=1e-5)
    assert np.allclose(np.diag(matrix), 0.0, atol=1e-4)
