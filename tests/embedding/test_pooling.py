"""Tests for repro.embedding.pooling."""

import numpy as np

from repro.embedding import medoid_pool


def test_medoid_pool_returns_member():
    vectors = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    medoid = medoid_pool(vectors)
    assert any(np.allclose(medoid, row) for row in vectors)
    # The medoid must be one of the two close points, not the outlier.
    assert not np.allclose(medoid, [5.0, 5.0])


def test_medoid_pool_single_row():
    vectors = np.array([[1.0, 2.0]])
    assert np.allclose(medoid_pool(vectors), [1.0, 2.0])
