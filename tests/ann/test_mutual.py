"""Tests for mutual top-K search (Eq. 1)."""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, create_index, mutual_top_k, top_k_pairs
import repro.ann.mutual as mutual_module
from repro.ann.mutual import MutualPair
from repro.exceptions import ConfigurationError, IndexError_


def _unit(rows: list[list[float]]) -> np.ndarray:
    matrix = np.asarray(rows, dtype=np.float32)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def test_mutual_top_k_simple_correspondence():
    a = _unit([[1.0, 0.0], [0.0, 1.0]])
    b = _unit([[0.9, 0.1], [0.1, 0.9]])
    pairs = mutual_top_k(a, b, k=1, max_distance=0.5)
    assert {(p.left, p.right) for p in pairs} == {(0, 0), (1, 1)}
    assert all(isinstance(p, MutualPair) for p in pairs)
    assert all(p.distance <= 0.5 for p in pairs)


def test_mutual_top_k_threshold_filters():
    a = _unit([[1.0, 0.0]])
    b = _unit([[0.0, 1.0]])
    assert mutual_top_k(a, b, k=1, max_distance=0.5) == []


def test_mutual_top_k_empty_inputs():
    empty = np.zeros((0, 4), dtype=np.float32)
    other = np.ones((3, 4), dtype=np.float32)
    assert mutual_top_k(empty, other, k=1, max_distance=1.0) == []
    assert mutual_top_k(other, empty, k=1, max_distance=1.0) == []


def test_mutual_requires_both_directions():
    # b0 is the nearest neighbour of a0 and a1, but b0's nearest is a0 only.
    a = _unit([[1.0, 0.0], [0.97, 0.03]])
    b = _unit([[0.99, 0.01]])
    pairs = mutual_top_k(a, b, k=1, max_distance=1.0)
    assert {(p.left, p.right) for p in pairs} == {(0, 0)}


def test_mutual_top_k_sorted_by_distance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 8)).astype(np.float32)
    b = a + rng.normal(scale=0.05, size=(20, 8)).astype(np.float32)
    pairs = mutual_top_k(a, b, k=2, max_distance=1.0)
    distances = [p.distance for p in pairs]
    assert distances == sorted(distances)
    assert len(pairs) >= 18  # almost every row pairs with its twin


def test_mutual_top_k_backends_agree_on_small_data():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(30, 16)).astype(np.float32)
    b = a + rng.normal(scale=0.01, size=(30, 16)).astype(np.float32)
    exact = {(p.left, p.right) for p in mutual_top_k(a, b, k=1, max_distance=0.5, backend="brute-force")}
    hnsw = {(p.left, p.right) for p in mutual_top_k(a, b, k=1, max_distance=0.5, backend="hnsw")}
    overlap = len(exact & hnsw) / max(len(exact), 1)
    assert overlap >= 0.9


def test_top_k_pairs_respects_distance_cap():
    vectors = _unit([[1.0, 0.0], [0.0, 1.0]])
    index = BruteForceIndex().build(vectors)
    pairs = top_k_pairs(index, vectors, k=2, max_distance=0.1)
    assert pairs == {(0, 0), (1, 1)}


def test_mutual_top_k_duplicate_vectors_pair_deterministically():
    # Two identical rows on each side: every directed top-1 is a tie between
    # the duplicates. The outcome must be deterministic and mutual — running
    # twice gives the same pairs, and each accepted pair has distance 0.
    a = _unit([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = _unit([[1.0, 0.0], [1.0, 0.0]])
    first = mutual_top_k(a, b, k=1, max_distance=0.5)
    second = mutual_top_k(a, b, k=1, max_distance=0.5)
    assert [(p.left, p.right) for p in first] == [(p.left, p.right) for p in second]
    assert all(p.distance == 0.0 for p in first)
    assert len(first) >= 1
    # Left row 2 is orthogonal to everything in b — never paired.
    assert all(p.left != 2 for p in first)


def test_mutual_top_k_with_k2_ties_keep_both_duplicates():
    # With k=2 the tie is moot: both duplicates are in each other's top-2,
    # so all four (left, right) combinations of the duplicate pairs appear.
    a = _unit([[1.0, 0.0], [1.0, 0.0]])
    b = _unit([[1.0, 0.0], [1.0, 0.0]])
    pairs = mutual_top_k(a, b, k=2, max_distance=0.5)
    assert {(p.left, p.right) for p in pairs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(p.distance == 0.0 for p in pairs)


def test_mutual_top_k_tied_distances_sorted_stably():
    # Sorting ties on (distance, left, right) keeps the output reproducible.
    a = _unit([[1.0, 0.0], [0.0, 1.0]])
    b = _unit([[1.0, 0.0], [0.0, 1.0]])
    pairs = mutual_top_k(a, b, k=1, max_distance=0.5)
    keys = [(p.distance, p.left, p.right) for p in pairs]
    assert keys == sorted(keys)


def test_mutual_top_k_backends_agree_on_duplicates():
    duplicates = _unit([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2)
    for backend in ("brute-force", "hnsw"):
        pairs = mutual_top_k(duplicates, duplicates, k=1, max_distance=0.1, backend=backend)
        rerun = mutual_top_k(duplicates, duplicates, k=1, max_distance=0.1, backend=backend)
        # Tie-breaking among identical vectors is deterministic...
        assert [(p.left, p.right) for p in pairs] == [(p.left, p.right) for p in rerun]
        # ...every accepted pair joins rows from the same duplicate group...
        assert pairs and all(p.distance == 0.0 for p in pairs)
        assert all((p.left < 3) == (p.right < 3) for p in pairs)
        # ...and self-pairs (i, i) are always mutual, so both groups appear.
        assert {p.left < 3 for p in pairs} == {True, False}


def test_create_index_auto_switches_backend():
    small = create_index("auto", "cosine", size_hint=10, brute_force_limit=100)
    large = create_index("auto", "cosine", size_hint=1000, brute_force_limit=100)
    assert type(small).__name__ == "BruteForceIndex"
    assert type(large).__name__ == "HNSWIndex"
    with pytest.raises(ConfigurationError):
        create_index("annoy", "cosine")


# ------------------------------------------------------------------ boundary
@pytest.fixture
def no_index(monkeypatch):
    """Fails any index build: the boundary checks must run before one."""

    def refuse(*args, **kwargs):
        raise AssertionError("an index was built before the inputs were checked")

    monkeypatch.setattr(mutual_module, "plan_side_index", refuse)
    monkeypatch.setattr(mutual_module, "exact_top1_pairs", refuse, raising=False)


@pytest.mark.parametrize("backend", ["brute-force", "hnsw"])
def test_mutual_top_k_refuses_mismatched_widths(no_index, backend):
    a, b = np.ones((3, 4), dtype=np.float32), np.ones((5, 6), dtype=np.float32)
    with pytest.raises(IndexError_, match=r"\(3, 4\) and \(5, 6\)"):
        mutual_top_k(a, b, k=1, max_distance=0.5, backend=backend)


@pytest.mark.parametrize("backend", ["brute-force", "hnsw"])
def test_mutual_top_k_refuses_a_non_2d_input(no_index, backend):
    a, b = np.ones((3, 4), dtype=np.float32), np.ones(4, dtype=np.float32)
    with pytest.raises(IndexError_, match=r"\(3, 4\) and \(4,\)"):
        mutual_top_k(a, b, k=1, max_distance=0.5, backend=backend)


def test_mutual_top_k_refuses_a_nan_max_distance(no_index):
    a = _unit([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="max_distance"):
        mutual_top_k(a, a, k=1, max_distance=float("nan"))


def test_mutual_top_k_refuses_a_negative_max_distance(no_index):
    a = _unit([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="max_distance"):
        mutual_top_k(a, a, k=1, max_distance=-0.1)
