"""The exact-hit index cache the benchmark replay hands to merges.

No production path creates one; these pin the lookup the replay relies on.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, IndexCache, mutual_top_k


@pytest.fixture()
def vectors() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.normal(size=(150, 16)).astype(np.float32)


def test_exact_hit_returns_same_index(vectors):
    cache = IndexCache(max_entries=2)
    builds = []

    def build():
        index = BruteForceIndex().build(vectors)
        builds.append(index)
        return index

    first = cache.get_or_build(vectors, build)
    second = cache.get_or_build(vectors.copy(), build)  # same bytes, new array
    assert first is second
    assert len(builds) == 1
    assert cache.stats.exact_hits == 1 and cache.stats.misses == 1


def test_params_key_isolates_entries(vectors):
    cache = IndexCache(max_entries=4)
    a = cache.get_or_build(vectors, lambda: BruteForceIndex().build(vectors), params_key="a")
    b = cache.get_or_build(vectors, lambda: BruteForceIndex().build(vectors), params_key="b")
    assert a is not b
    assert cache.stats.misses == 2 and cache.stats.exact_hits == 0


def test_mutual_top_k_with_cache_matches_without(vectors):
    rng = np.random.default_rng(8)
    other = vectors[:120] + rng.normal(scale=0.05, size=(120, 16)).astype(np.float32)
    plain = mutual_top_k(vectors, other, k=1, max_distance=0.6, backend="hnsw")
    cache = IndexCache(max_entries=4)
    for _ in range(2):  # second call is served fully from cache
        cached = mutual_top_k(vectors, other, k=1, max_distance=0.6, backend="hnsw", cache=cache)
        assert [(p.left, p.right, p.distance) for p in cached] == [
            (p.left, p.right, p.distance) for p in plain
        ]
    assert cache.stats.exact_hits == 2
