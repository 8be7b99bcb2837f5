"""Vectorized mutual top-K vs the loop references.

``top_k_pairs`` must be exactly equivalent to the historical per-element
Python loop. The recomputed mutual pair distances
now run through :func:`~repro.ann.distances.paired_distances` (O(m·d));
they mirror the matrix kernel's formula but may drift by a float32 ulp from
the old GEMM diagonal on shape-dependent BLAS builds, so the pair *set* is
asserted exactly and the distances to 1e-6 — downstream merging only ever
consumes the pair set (union-find over left/right), which is why the pinned
pipeline digests stay byte-identical.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, mutual_top_k, top_k_pairs
from repro.ann.distances import distance_matrix, paired_distances
from repro.ann.mutual import MutualPair, create_index

#: The indexes' one metric, still a parameter so these test ids name it.
METRICS = ("cosine",)


def top_k_pairs_reference(index, queries, k, max_distance):
    """The historical per-element loop."""
    indices, distances = index.query(queries, k)
    pairs = set()
    for query_row in range(indices.shape[0]):
        for neighbor, distance in zip(indices[query_row], distances[query_row]):
            if neighbor < 0 or not np.isfinite(distance):
                continue
            if distance <= max_distance:
                pairs.add((query_row, int(neighbor)))
    return pairs


def mutual_top_k_reference(vectors_a, vectors_b, k, max_distance, metric, backend):
    """The historical set-intersection + GEMM-diagonal implementation."""
    index_b = create_index(backend, size_hint=vectors_b.shape[0]).build(vectors_b)
    index_a = create_index(backend, size_hint=vectors_a.shape[0]).build(vectors_a)
    forward = top_k_pairs_reference(index_b, vectors_a, k, max_distance)
    backward = top_k_pairs_reference(index_a, vectors_b, k, max_distance)
    mutual = forward & {(a, b) for b, a in backward}
    if not mutual:
        return []
    lefts = np.array([a for a, _ in mutual])
    rights = np.array([b for _, b in mutual])
    dists = distance_matrix(vectors_a[lefts], vectors_b[rights], metric)
    pairs = [
        MutualPair(int(left), int(right), float(dists[i, i]))
        for i, (left, right) in enumerate(zip(lefts, rights))
    ]
    pairs.sort(key=lambda p: (p.distance, p.left, p.right))
    return pairs


def _twin_clouds(seed, n, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)).astype(np.float32)
    b = a[rng.permutation(n)] + rng.normal(scale=0.02, size=(n, d)).astype(np.float32)
    return a, b


@pytest.mark.parametrize("k", [1, 3])
def test_top_k_pairs_matches_loop_reference(k):
    a, b = _twin_clouds(0, 120, 16)
    index = BruteForceIndex().build(b)
    assert top_k_pairs(index, a, k, 0.4) == top_k_pairs_reference(index, a, k, 0.4)


def test_top_k_pairs_empty_and_padded_slots():
    # k larger than the index: padded slots (-1 / inf) must be masked out.
    vectors = np.eye(3, dtype=np.float32)
    index = BruteForceIndex().build(vectors[:2])
    assert top_k_pairs(index, vectors, 5, 2.0) == top_k_pairs_reference(index, vectors, 5, 2.0)
    assert top_k_pairs(index, vectors, 5, -1.0) == set()


@pytest.mark.parametrize("backend", ["brute-force", "hnsw"])
@pytest.mark.parametrize("metric", METRICS)
def test_mutual_top_k_matches_reference_pairs(backend, metric):
    a, b = _twin_clouds(1, 150, 16)
    got = mutual_top_k(a, b, k=2, max_distance=0.5, backend=backend)
    want = mutual_top_k_reference(a, b, 2, 0.5, metric, backend)
    assert {(p.left, p.right) for p in got} == {(p.left, p.right) for p in want}
    got_by_pair = {(p.left, p.right): p.distance for p in got}
    for pair in want:
        assert got_by_pair[(pair.left, pair.right)] == pytest.approx(pair.distance, abs=2e-6)
    # Output stays sorted by (distance, left, right) under its own distances.
    keys = [(p.distance, p.left, p.right) for p in got]
    assert keys == sorted(keys)


@pytest.mark.parametrize("metric", METRICS)
def test_paired_distances_matches_matrix_diagonal(metric):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(300, 64)).astype(np.float32)
    b = rng.normal(size=(300, 64)).astype(np.float32)
    got = paired_distances(a, b)
    want = np.diagonal(distance_matrix(a, b, metric))
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-6)
    assert got.dtype == want.dtype


def test_paired_distances_exact_cases():
    # Identical rows and zero rows are exactly representable: no ulp drift.
    v = np.eye(4, dtype=np.float32)
    assert paired_distances(v, v).tolist() == [0.0] * 4
    zero = np.zeros((2, 4), dtype=np.float32)
    assert np.array_equal(
        paired_distances(zero, v[:2]),
        np.diagonal(distance_matrix(zero, v[:2], "cosine")),
    )


def test_merge_output_invariant_to_pair_order(monkeypatch):
    """The merged ItemTable must not depend on mutual-pair list order.

    ``paired_distances`` can reorder near-tied pairs relative to the old
    GEMM diagonal, so the byte-identity of the merge stage relies on this
    invariance: the union-find's component membership is a set property, and
    relabeling keys on each component's first member in scan order — both
    independent of the order unions are applied in.
    """
    import repro.ann.mutual as mutual_module
    from repro.config import MergingConfig
    from repro.core.merging import ItemTable, merge_item_tables

    rng = np.random.default_rng(0)

    def make_table(seed):
        generator = np.random.default_rng(seed)
        vectors = generator.normal(size=(200, 16)).astype(np.float32)
        return ItemTable(
            vectors,
            (np.arange(200) % 3).astype(np.int32),
            np.arange(200, dtype=np.int64),
            np.arange(201, dtype=np.int64),
            ("s0", "s1", "s2"),
        )

    left, right = make_table(1), make_table(2)
    right.vectors[:] = left.vectors[rng.permutation(200)] + rng.normal(
        scale=0.01, size=(200, 16)
    ).astype(np.float32)
    config = MergingConfig(m=0.6, index="brute-force")
    base, base_pairs = merge_item_tables(left, right, config)

    original = mutual_module.canonical_pairs  # the pair-list tail of every merge path
    for trial in range(3):
        shuffles = []

        def shuffled(*args, _trial=trial, **kwargs):
            pairs = original(*args, **kwargs)
            order = np.random.default_rng(_trial).permutation(len(pairs))
            shuffles.append(not np.array_equal(order, np.arange(len(pairs))))
            return [pairs[i] for i in order]

        monkeypatch.setattr(mutual_module, "canonical_pairs", shuffled)
        merged, num_pairs = merge_item_tables(left, right, config)
        assert shuffles == [True], "the merge did not reach the pair-list tail, or kept its order"
        assert num_pairs == base_pairs
        assert np.array_equal(merged.vectors, base.vectors)
        assert np.array_equal(merged.member_sources, base.member_sources)
        assert np.array_equal(merged.member_indices, base.member_indices)
        assert np.array_equal(merged.member_offsets, base.member_offsets)
    monkeypatch.setattr(mutual_module, "canonical_pairs", original)

