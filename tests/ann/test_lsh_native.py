"""LSH native re-rank vs pure-Python engine path: byte identity.

The shared query engine (``repro/ann/engine.py``) re-ranks the flat CSR
(query → candidates) stream through the runtime-compiled kernel when it is
available and through a bucketed batched-matmul numpy pass otherwise. Both
must produce identical bytes — including on exact distance ties (duplicate
vectors), empty buckets, and all-miss probes. When the kernel is unavailable
(no toolchain, ``REPRO_NATIVE=0``), both paths are the numpy path and the
native-vs-python assertions hold trivially.
"""

import numpy as np
import pytest

from repro.ann import LSHIndex
from repro.ann import engine
from repro.ann.distances import PreparedVectors


def _query_both(index: LSHIndex, queries: np.ndarray, k: int):
    index._use_native = False
    python_result = index.query(queries, k)
    index._use_native = True
    native_result = index.query(queries, k)
    index._use_native = None
    return python_result, native_result


def _assert_bitwise(python_result, native_result):
    p_idx, p_dist = python_result
    n_idx, n_dist = native_result
    assert np.array_equal(p_idx, n_idx)
    assert p_dist.tobytes() == n_dist.tobytes()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("probe_neighbors", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_lsh_native_query_bitwise_match(metric, probe_neighbors, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(300, 24)).astype(np.float32)
    vectors[11] = vectors[4]  # duplicate rows → exact distance ties
    vectors[250] = vectors[4]
    queries = np.concatenate([vectors[:40], rng.normal(size=(10, 24)).astype(np.float32)])
    index = LSHIndex(
        metric=metric, num_tables=4, num_bits=7, probe_neighbors=probe_neighbors, seed=seed
    ).build(vectors)
    for k in (1, 4, 32):
        _assert_bitwise(*_query_both(index, queries, k))


def test_lsh_native_tie_order_is_candidate_ascending():
    """Exact ties resolve by candidate id on both paths (the engine contract)."""
    base = np.asarray([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
    vectors = np.repeat(base, 6, axis=0)  # six identical rows, all ties
    index = LSHIndex(num_tables=2, num_bits=4, seed=0).build(vectors)
    (p_idx, _), (n_idx, _) = _query_both(index, base, 6)
    assert p_idx.tolist() == [[0, 1, 2, 3, 4, 5]]
    assert np.array_equal(p_idx, n_idx)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_lsh_native_nan_distances_sort_last(metric):
    """NaN re-rank distances sort last on both paths (numpy's argsort rule).

    A naive (dist, position) qsort comparator is intransitive on NaN —
    undefined behaviour that ranked NaN candidates ahead of finite ones in
    an earlier kernel revision — so the C re-rank classifies NaN explicitly.
    """
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(120, 16)).astype(np.float32)
    vectors[7] = np.nan  # poisons every distance involving row 7
    index = LSHIndex(metric=metric, num_tables=4, num_bits=6, seed=0).build(vectors)
    python_result, native_result = _query_both(index, vectors[:30], 5)
    _assert_bitwise(python_result, native_result)
    p_idx, p_dist = python_result
    finite = np.isfinite(p_dist) & (p_idx >= 0)
    nan_slots = np.isnan(p_dist)
    # Within every row, no NaN slot may precede a finite slot.
    for row in range(p_idx.shape[0]):
        if nan_slots[row].any() and finite[row].any():
            assert nan_slots[row].argmax() > finite[row].nonzero()[0][-1]


def test_lsh_native_all_miss_and_empty_buckets():
    # Far-away queries that miss every bucket keep -1 / inf padding on both
    # paths; mixed hit/miss batches exercise the empty-segment skip.
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(30, 8)).astype(np.float32)
    index = LSHIndex(num_tables=1, num_bits=12, probe_neighbors=False, seed=0).build(vectors)
    misses = -100.0 * vectors[:4] + rng.normal(size=(4, 8)).astype(np.float32)
    mixed = np.concatenate([vectors[:3], misses, vectors[3:6]])
    python_result, native_result = _query_both(index, mixed, 3)
    _assert_bitwise(python_result, native_result)
    p_idx, p_dist = python_result
    assert np.all(p_idx[3:7] == -1)
    assert np.all(np.isinf(p_dist[3:7]))
    assert (p_idx[:3] >= 0).any() and (p_idx[7:] >= 0).any()


def test_lsh_native_probe_neighbors_off_matches_python():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(120, 16)).astype(np.float32)
    index = LSHIndex(num_tables=3, num_bits=9, probe_neighbors=False, seed=2).build(vectors)
    _assert_bitwise(*_query_both(index, vectors[:50], 5))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_rerank_csr_matches_row_distances_reference(metric):
    """Engine re-rank vs a literal per-segment row_distances + stable argsort."""
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(200, 12)).astype(np.float32)
    vectors[7] = vectors[2]
    prepared = PreparedVectors(vectors, metric)
    queries = rng.normal(size=(25, 12)).astype(np.float32)
    prepared_queries = prepared.prepare_queries(queries)
    # Variable-length sorted segments, including empty ones and a tie pair.
    segments = []
    for row in range(25):
        if row % 6 == 0:
            segments.append(np.zeros(0, dtype=np.int64))
            continue
        count = int(rng.integers(1, 40))
        segment = np.unique(rng.integers(0, 200, size=count))
        segments.append(segment.astype(np.int64))
    candidates = np.concatenate(segments)
    offsets = np.zeros(26, dtype=np.int64)
    np.cumsum([len(s) for s in segments], out=offsets[1:])
    k = 5
    for use_native in (False, None):
        indices, distances = engine.alloc_topk(25, k)
        engine.rerank_csr(
            prepared, prepared_queries, candidates, offsets, k, indices, distances,
            use_native=use_native,
        )
        want_idx, want_dist = engine.alloc_topk(25, k)
        for row, segment in enumerate(segments):
            if not len(segment):
                continue
            dists = prepared.row_distances(prepared_queries[row], segment)
            order = np.argsort(dists, kind="stable")[:k]
            count = len(order)
            want_idx[row, :count] = segment[order]
            want_dist[row, :count] = dists[order]
        assert np.array_equal(indices, want_idx)
        assert distances.tobytes() == want_dist.tobytes()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("d", [8, 12, 36, 384, 4096, 4100])
def test_rerank_csr_matches_gathered_reference_at_every_dispatch_edge(metric, d):
    """Rows read in place by the kernel == the gathered numpy reference, to the byte.

    The kernel hands each candidate row to its distance routine straight from
    the base matrix; only the BLAS sgemv fallback gathers them. The widths and
    segment lengths straddle every dispatch edge of ``base_row_distances``:
    k = 1 (sdot), 2 ≤ k ≤ 256 (AVX2 micro-kernels), k = 257 (BLAS sgemv), and
    d ≤ 8 / d % 4 ≠ 0 / d > 4096 (BLAS on either variant). Segments are
    sorted but spread over the whole base, and include a duplicated vector
    pair placed far apart, so the position tie-break is exercised too.
    """
    rng = np.random.default_rng(d)
    n = 320
    vectors = rng.normal(size=(n, d)).astype(np.float32)
    vectors[301] = vectors[3]  # exact tie, far apart in the base
    prepared = PreparedVectors(vectors, metric)
    lengths = (1, 2, 3, 4, 5, 7, 255, 256, 257)
    segments = []
    for length in lengths:
        for _ in range(2):
            rest = rng.choice(np.setdiff1d(np.arange(n), [3, 301]), size=max(length - 2, 0),
                              replace=False)
            chosen = [3] if length == 1 else [3, 301]
            segments.append(np.sort(np.concatenate([chosen, rest])).astype(np.int64))
    num_queries = len(segments)
    queries = rng.normal(size=(num_queries, d)).astype(np.float32)
    queries[1::2] = vectors[3]  # half the queries sit on the duplicated pair
    prepared_queries = prepared.prepare_queries(queries)
    candidates = np.concatenate(segments)
    offsets = np.zeros(num_queries + 1, dtype=np.int64)
    np.cumsum([len(s) for s in segments], out=offsets[1:])
    k = max(lengths)
    want_idx, want_dist = engine.alloc_topk(num_queries, k)
    for row, segment in enumerate(segments):
        dists = prepared.row_distances(prepared_queries[row], segment)
        order = np.argsort(dists, kind="stable")
        want_idx[row, : len(order)] = segment[order]
        want_dist[row, : len(order)] = dists[order]
    indices, distances = engine.alloc_topk(num_queries, k)
    engine.rerank_csr(
        prepared, prepared_queries, candidates, offsets, k, indices, distances, use_native=True
    )
    assert np.array_equal(indices, want_idx)
    assert distances.tobytes() == want_dist.tobytes()


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_batched_matmul_matches_row_matvec(metric):
    """The numpy fallback's core equality: (t, s, d) @ (t, d, 1) == per-row matvec.

    ``engine._rerank_python`` relies on each stacked-matmul slice taking the
    same GEMV-shaped BLAS path as ``PreparedVectors.row_distances``. This is
    an empirical property of the BLAS build — pin it the way
    ``batched_pairwise_distances`` pins its aliasing assumptions.
    """
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(500, 48)).astype(np.float32)
    prepared = PreparedVectors(vectors, metric)
    queries = prepared.prepare_queries(rng.normal(size=(12, 48)).astype(np.float32))
    base = prepared._normed if metric == "cosine" else prepared.vectors
    for s in (1, 2, 17, 120):
        rows = rng.integers(0, 500, size=(12, s))
        stacked = np.matmul(base[rows], queries[:, :, None])[:, :, 0]
        reference = np.stack([base[rows[i]] @ queries[i] for i in range(12)])
        assert stacked.tobytes() == reference.tobytes()
