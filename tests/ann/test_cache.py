"""Tests for the cross-level ANN index cache."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, IndexCache, mutual_top_k
from repro.ann.cache import fingerprint_vectors
from repro.exceptions import ConfigurationError


@pytest.fixture()
def vectors() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.normal(size=(150, 16)).astype(np.float32)


def test_invalid_capacity_raises():
    with pytest.raises(ConfigurationError):
        IndexCache(max_entries=0)


def test_fingerprint_distinguishes_content_and_shape(vectors):
    assert fingerprint_vectors(vectors) == fingerprint_vectors(vectors.copy())
    changed = vectors.copy()
    changed[0, 0] += 1.0
    assert fingerprint_vectors(vectors) != fingerprint_vectors(changed)
    assert fingerprint_vectors(vectors) != fingerprint_vectors(vectors[:100])


def test_fingerprint_hashes_in_place_the_bytes_tobytes_would_give(vectors):
    """Cache keys written before the in-place fingerprint stay valid."""
    import hashlib

    for array in (vectors, vectors[::2, 3:]):
        historical = hashlib.blake2b(digest_size=16)
        historical.update(str(array.shape).encode())
        historical.update(str(array.dtype).encode())
        historical.update(np.ascontiguousarray(array).tobytes())
        assert fingerprint_vectors(array) == historical.hexdigest()


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


def test_prefix_hit_extends_clone(vectors):
    cache = IndexCache(max_entries=4)
    prefix = vectors[:100]
    cached = cache.get_or_build(prefix, lambda: HNSWIndex(seed=3).build(prefix))
    extended = cache.get_or_build(vectors, lambda: HNSWIndex(seed=3).build(vectors))
    assert cache.stats.prefix_hits == 1
    assert extended is not cached and cached.size == 100 and extended.size == 150
    reference = HNSWIndex(seed=3).build(vectors)
    got_idx, got_dist = extended.query(vectors[:20], 3)
    want_idx, want_dist = reference.query(vectors[:20], 3)
    assert np.array_equal(got_idx, want_idx)
    assert np.array_equal(got_dist, want_dist)


def test_overlap_without_prefix_rebuilds(vectors):
    cache = IndexCache(max_entries=4)
    cache.get_or_build(vectors[:100], lambda: HNSWIndex(seed=0).build(vectors[:100]))
    # Same rows but one replaced mid-table: not a prefix -> fresh build.
    mutated = vectors.copy()
    mutated[50] += 1.0
    cache.get_or_build(mutated, lambda: HNSWIndex(seed=0).build(mutated))
    assert cache.stats.prefix_hits == 0
    assert cache.stats.misses == 2


class _QueryOnly:
    """A wrapper exposing only ``query``, as tracing and timing wrappers may."""

    def __init__(self, index) -> None:
        self._index = index

    def query(self, queries, k):
        return self._index.query(queries, k)


def test_query_only_entries_never_prefix_extend(vectors):
    cache = IndexCache(max_entries=4)
    cache.get_or_build(vectors[:100], lambda: _QueryOnly(HNSWIndex(seed=0).build(vectors[:100])))
    cache.get_or_build(vectors, lambda: _QueryOnly(HNSWIndex(seed=0).build(vectors)))
    assert cache.stats.prefix_hits == 0  # no clone/extend support
    assert cache.stats.misses == 2


def test_lru_eviction(vectors):
    cache = IndexCache(max_entries=2)
    chunks = [vectors[:40], vectors[40:80], vectors[80:120]]
    for chunk in chunks:
        cache.get_or_build(chunk, lambda chunk=chunk: BruteForceIndex().build(chunk))
    assert len(cache) == 2
    cache.get_or_build(chunks[0], lambda: BruteForceIndex().build(chunks[0]))  # evicted -> rebuild
    assert cache.stats.misses == 4


def test_clear_resets(vectors):
    cache = IndexCache(max_entries=2)
    cache.get_or_build(vectors, lambda: BruteForceIndex().build(vectors))
    cache.clear()
    assert len(cache) == 0 and cache.stats.misses == 0


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
