"""Int64 key dedup: ``dedup_sorted_keys`` must equal sorted unique exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import dedup_sorted_keys


def reference(keys: np.ndarray) -> np.ndarray:
    return np.unique(keys)


class TestDedupEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5000))
        # Mix of heavy duplication (small range) and sparse 62-bit keys.
        if seed % 2:
            keys = rng.integers(0, max(size // 8, 2), size=size).astype(np.int64)
        else:
            keys = rng.integers(0, np.int64(2) ** 62, size=size, dtype=np.int64)
        want = reference(keys)
        got = dedup_sorted_keys(keys.copy())
        assert np.array_equal(got, want)
        assert got.dtype == np.int64

    def test_edge_streams(self):
        cases = [
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(100, dtype=np.int64),              # all duplicates
            np.arange(1000, dtype=np.int64),            # already unique & sorted
            np.arange(1000, dtype=np.int64)[::-1].copy(),  # reversed
            np.array([np.iinfo(np.int64).max, 0, np.iinfo(np.int64).max], dtype=np.int64),
        ]
        for keys in cases:
            got = dedup_sorted_keys(keys.copy())
            assert np.array_equal(got, reference(keys))

    def test_constant_high_digits(self):
        """Narrow keys: everything above the low 20 bits is constant."""
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**20, size=4096).astype(np.int64)
        got = dedup_sorted_keys(keys.copy())
        assert np.array_equal(got, reference(keys))

