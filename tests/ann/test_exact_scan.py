"""The exact scan's top-1 shortcut against the body it replaced.

``reference_exact_topk`` is ``engine.exact_topk_blocked`` as it stood before
the ``k = 1`` ``argmin`` step existed: whole-block ``argpartition`` +
``argsort`` at every ``k``. The shipped function must return the same
``(indices, distances)`` bytes on inputs built to have non-unique minima
(duplicates, quantised rows, zero vectors, signed zeros, NaN, overflow) —
through the function itself and through every caller that reaches it,
including the one-pass mutual top-1 (``exact_top1_pairs``), which must equal
the two-scan composition ``_reference_mutual`` byte for byte.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ann.mutual as mutual_module
from repro.ann import BruteForceIndex, mutual_top_k, top_k_pairs
from repro.ann import engine
from repro.ann.distances import PreparedVectors, paired_distances

#: The indexes' one metric, still a parameter so these test ids name it.
METRICS = ("cosine",)
SIZES = (1, 2, 3, 17, 300)
PERTURBATIONS = (
    "quantised", "duplicate_index", "queries_from_index", "duplicate_queries",
    "identical_index", "zero_vector", "signed_zero", "nan", "overflow",
)


def reference_exact_topk(prepared, prepared_queries, k, batch_size, indices, distances):
    num_rows = prepared.size
    num_queries = prepared_queries.shape[0]
    effective_k = min(k, num_rows)
    for start in range(0, num_queries, batch_size):
        stop = min(start + batch_size, num_queries)
        block = prepared.block_distances(prepared_queries[start:stop])
        if effective_k < num_rows:
            top = np.argpartition(block, effective_k - 1, axis=1)[:, :effective_k]
        else:
            top = np.tile(np.arange(num_rows), (stop - start, 1))
        row_index = np.arange(stop - start)[:, None]
        top_distances = block[row_index, top]
        order = np.argsort(top_distances, axis=1)
        indices[start:stop, :effective_k] = top[row_index, order]
        distances[start:stop, :effective_k] = top_distances[row_index, order]


class ReferenceIndex(BruteForceIndex):
    """A brute-force index whose query runs the historical scan body."""

    def query(self, queries, k):
        queries = np.asarray(queries, dtype=np.float32)
        indices, distances = engine.alloc_topk(queries.shape[0], k)
        reference_exact_topk(
            self._prepared, self._prepared.prepare_queries(queries), k, self.batch_size,
            indices, distances,
        )
        return indices, distances


class _Blocks:
    """Stands in for ``PreparedVectors``: serves rows of a hand-made distance matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float32)
        self.size = self.matrix.shape[1]

    def block_distances(self, row_ids):
        return self.matrix[row_ids]


def _scan(function, prepared, prepared_queries, k, batch_size):
    indices, distances = engine.alloc_topk(prepared_queries.shape[0], k)
    function(prepared, prepared_queries, k, batch_size, indices, distances)
    return indices, distances


def _assert_same_answers(got, want):
    assert np.array_equal(got[0], want[0])
    # Bytes, not values: NaN equals NaN, and the sign of a zero counts.
    assert got[1].tobytes() == want[1].tobytes()


def _tied_rows(block):
    """Query rows whose minimum is not attained exactly once: the fallback's rows."""
    with np.errstate(invalid="ignore"):
        best = block[np.arange(block.shape[0]), np.argmin(block, axis=1)]
        return np.flatnonzero(np.count_nonzero(block == best[:, None], axis=1) != 1)


def _inputs(seed, n, num_queries, perturbations, dim=6):
    """An index / query pair with the named sources of non-unique minima applied."""
    rng = np.random.default_rng(seed)
    index = rng.standard_normal((n, dim)).astype(np.float32)
    queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
    if "quantised" in perturbations:
        index, queries = np.round(index, 1), np.round(queries, 1)
    if "duplicate_index" in perturbations:
        copied = rng.random(n) < 0.5
        index[copied] = index[rng.integers(n, size=n)[copied]]
    if "identical_index" in perturbations:
        index[:] = index[0]
    if "queries_from_index" in perturbations:
        queries = index[rng.integers(n, size=num_queries)].copy()
    if "duplicate_queries" in perturbations:
        queries[num_queries // 2 :] = queries[0]
    if "zero_vector" in perturbations:
        index[0] = 0.0
        queries[-1] = 0.0
    if "signed_zero" in perturbations:
        index[:, 0] = 0.0
        index[::2, 0] = -0.0
        queries[:, 0] = -0.0
    if "nan" in perturbations:
        index[n // 2, 0] = np.nan
        queries[0, -1] = np.nan
    if "overflow" in perturbations:  # 3e19 squared leaves float32: the norm is inf
        index[-1] = 3e19
        queries[-1, 0] = 3e19
    return index, queries


def _check_scan(prepared, prepared_queries, k, batch_size):
    got = _scan(engine.exact_topk_blocked, prepared, prepared_queries, k, batch_size)
    want = _scan(reference_exact_topk, prepared, prepared_queries, k, batch_size)
    _assert_same_answers(got, want)


def _check_vectors(index, queries, ks, batch_size):
    """Compare both scans at every ``k``; returns the query rows that took the fallback."""
    with np.errstate(all="ignore"):  # NaN and overflowing inputs are the point
        prepared = PreparedVectors(index)
        prepared_queries = prepared.prepare_queries(queries)
        for k in ks:
            _check_scan(prepared, prepared_queries, k, batch_size)
        return _tied_rows(prepared.block_distances(prepared_queries))


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    num_queries=st.sampled_from((1, 2, 3, 6, 7, 8)),
    batch_size=st.sampled_from((1, 3, 2048)),
    k_choice=st.sampled_from(("1", "2", "n", "n+3")),
    perturbations=st.sets(st.sampled_from(PERTURBATIONS)),
    seed=st.integers(0, 2**16),
)
def test_scan_equals_historical_body(n, num_queries, batch_size, k_choice, perturbations, seed):
    k = {"1": 1, "2": 2, "n": n, "n+3": n + 3}[k_choice]
    index, queries = _inputs(seed, n, num_queries, perturbations)
    _check_vectors(index, queries, (k,), batch_size)


#: Inputs on which some query row is certain to have a non-unique minimum.
CERTAIN_TIES = (("identical_index",), ("nan",), ("duplicate_index", "queries_from_index"))


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "perturbations", [(name,) for name in PERTURBATIONS] + [CERTAIN_TIES[-1]], ids="+".join
)
def test_each_tie_source_at_every_k(metric, n, perturbations):
    """Seven queries in blocks of three: two full blocks and a remainder."""
    index, queries = _inputs(11, n, 7, set(perturbations))
    tied = _check_vectors(index, queries, (1, 2, n, n + 3), batch_size=3)
    if n >= 17 and perturbations in CERTAIN_TIES:
        assert tied.size, "this input was built to reach the fallback and did not"


def test_hand_made_blocks_with_signed_zeros_nan_and_inf_rows():
    inf, nan = np.inf, np.nan
    matrix = [
        [0.5, 0.25, 0.75, 1.0],    # unique minimum
        [0.5, 0.25, 0.25, 1.0],    # exact tie
        [0.0, -0.0, 0.5, -0.0],    # zeros of both signs
        [-0.0, 0.0, 0.0, 0.5],
        [inf, inf, inf, inf],      # every distance inf
        [nan, 0.5, 0.25, 1.0],     # argmin says 0, argpartition sorts NaN last
        [0.5, nan, 0.25, 0.25],
        [nan, nan, nan, nan],
        [inf, nan, inf, 0.5],
        [1.0, 0.75, 0.5, 0.25],    # unique minimum in the last column
    ]
    stub = _Blocks(matrix)
    row_ids = np.arange(len(matrix))
    assert list(_tied_rows(stub.matrix)) == [1, 2, 3, 4, 5, 6, 7, 8]
    for k in (1, 2, 4, 7):
        for batch_size in (1, 3, 4, 2048):
            _check_scan(stub, row_ids, k, batch_size)


@pytest.mark.parametrize("n", (2, 3, 17, 800, 1300, 4000))
def test_argpartition_selects_each_row_independently(n):
    """What the fallback rests on: re-selecting some rows alone changes no winner.

    numpy picks an ``argpartition`` kernel by row length and dtype; every one
    of them must treat the rows of a C-contiguous block one at a time.
    """
    rng = np.random.default_rng(n)
    block = np.round(rng.random((64, n)), 1).astype(np.float32)  # ≤ 11 values: ties everywhere
    block[5, : n // 2] = np.nan
    block[6] = np.inf
    rows = _tied_rows(block)
    assert rows.size >= 5
    whole = np.argpartition(block, 0, axis=1)
    assert np.array_equal(whole[rows][:, :1], np.argpartition(block[rows], 0, axis=1)[:, :1])
    for row in rows[:8]:
        assert whole[row, 0] == np.argpartition(block[row : row + 1], 0, axis=1)[0, 0]


# --------------------------------------------------------------- every caller
def _tables_with_duplicates(n_a=60, n_b=45, dim=8, seed=3):
    """Two sides sharing rows, each with internal duplicates: ties in both directions."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.standard_normal((30, dim)), 1).astype(np.float32)
    return base[rng.integers(30, size=n_a)].copy(), base[rng.integers(30, size=n_b)].copy()


def _reference_mutual(vectors_a, vectors_b, k, max_distance):
    def directed(index_vectors, queries):
        indices, distances = ReferenceIndex().build(index_vectors).query(queries, k)
        keep = (indices >= 0) & np.isfinite(distances) & (distances <= max_distance)
        rows = np.broadcast_to(np.arange(len(queries))[:, None], indices.shape)
        return set(zip(rows[keep].tolist(), indices[keep].tolist()))

    mutual = sorted(directed(vectors_b, vectors_a) & {(a, b) for b, a in directed(vectors_a, vectors_b)})
    lefts = np.array([a for a, _ in mutual], dtype=np.int64)
    rights = np.array([b for _, b in mutual], dtype=np.int64)
    dists = paired_distances(vectors_a[lefts], vectors_b[rights])
    order = np.lexsort((rights, lefts, dists))
    return [(int(lefts[i]), int(rights[i]), float(dists[i])) for i in order]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", (1, 2))
def test_mutual_top_k_on_tied_tables_equals_reference_composition(metric, k):
    vectors_a, vectors_b = _tables_with_duplicates()
    want = _reference_mutual(vectors_a, vectors_b, k, 0.5)
    pairs = mutual_top_k(vectors_a, vectors_b, k=k, max_distance=0.5, backend="brute-force")
    assert want and [(p.left, p.right, p.distance) for p in pairs] == want


def test_top_k_pairs_on_tied_tables_equals_reference_scan():
    """``experiments/ablations.py`` asks a brute index through ``top_k_pairs``."""
    vectors_a, vectors_b = _tables_with_duplicates()
    got = top_k_pairs(BruteForceIndex().build(vectors_b), vectors_a, 1, 0.5)
    assert got and got == top_k_pairs(ReferenceIndex().build(vectors_b), vectors_a, 1, 0.5)


def test_query_rows_keeps_the_coalescing_contract_on_a_tied_nearest_pair():
    """The serving path asks a brute index one row at a time: a 1 x n block per row."""
    vectors_a, vectors_b = _tables_with_duplicates()
    index = BruteForceIndex().build(vectors_b)
    batch = np.concatenate([vectors_b[:6], vectors_a[:6]])  # row 0 is an indexed, duplicated row
    assert np.count_nonzero((vectors_b == batch[0]).all(axis=1)) >= 2
    indices, distances = engine.query_rows(index, batch, 1)
    reference = ReferenceIndex().build(vectors_b)
    for row in range(batch.shape[0]):
        alone = index.query(batch[row : row + 1], 1)
        _assert_same_answers((indices[row : row + 1], distances[row : row + 1]), alone)
        _assert_same_answers(alone, reference.query(batch[row : row + 1], 1))


# ---------------------------------------------------- one pass == two scans
def _pair_bytes(pairs):
    """Pair ids and the raw bytes of the distances: NaN equals NaN, a zero's sign counts."""
    return [(left, right) for left, right, _ in pairs], np.array(
        [distance for _, _, distance in pairs], dtype=np.float64
    ).tobytes()


def _one_pass_equals_two_scans(vectors_a, vectors_b, max_distance, *, one_pass=True):
    """``mutual_top_k`` at K = 1 on exact sides against the two-scan reference, with a spy."""
    calls = []
    original = mutual_module.exact_top1_pairs
    with pytest.MonkeyPatch.context() as patched, np.errstate(all="ignore"):
        patched.setattr(
            mutual_module, "exact_top1_pairs", lambda *a, **kw: calls.append(1) or original(*a, **kw)
        )
        got = mutual_top_k(vectors_a, vectors_b, k=1, max_distance=max_distance, backend="brute-force")
        want = _reference_mutual(vectors_a, vectors_b, 1, max_distance)
    assert calls == ([1] if one_pass else []), "the one-pass path did not run as routed"
    assert _pair_bytes([(p.left, p.right, p.distance) for p in got]) == _pair_bytes(want)
    return want


@settings(max_examples=200, deadline=None)
@given(
    n_a=st.sampled_from(SIZES),
    n_b=st.sampled_from(SIZES),
    max_distance=st.sampled_from((0.3, 1.0, np.inf)),
    perturbations=st.sets(st.sampled_from(PERTURBATIONS)),
    seed=st.integers(0, 2**16),
)
def test_one_pass_equals_two_scan_composition(n_a, n_b, max_distance, perturbations, seed):
    """Every tie source, 1-row sides (GEMV) to 300-row ones."""
    index, queries = _inputs(seed, n_b, n_a, perturbations)
    _one_pass_equals_two_scans(queries, index, max_distance)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "n_a, n_b, one_pass",
    [(2048 + 700, 2400, True), (2100, 2 * 2048 + 500, True), (2048 + 3, 500, False)],
    ids=["2-blocks-each", "2-by-3-blocks", "3-row-tail-refused"],
)
def test_one_pass_over_several_blocks_equals_two_scans(metric, n_a, n_b, one_pass):
    """Sides of 2+ scan blocks, duplicated rows both ways. A tail block too small for the
    blocked GEMM is refused and takes two scans; either way the bytes are the reference's."""
    index, queries = _inputs(
        n_a + n_b, n_b, n_a, {"quantised", "duplicate_index", "queries_from_index"}
    )
    queries[::3] += np.float32(0.05)  # not every query a copy: unique minima beside the ties
    assert _one_pass_equals_two_scans(queries, index, 1.0, one_pass=one_pass)


def _scan_blocks(vectors, queries):
    """Every distance block an exact scan computes, stacked (through the scan's own hook)."""
    prepared, blocks = PreparedVectors(vectors), []
    indices, distances = engine.alloc_topk(len(queries), 1)
    engine.exact_topk_blocked(
        prepared, prepared.prepare_queries(queries), 1, 2048, indices, distances, blocks.append
    )
    return np.concatenate(blocks)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "n_a, n_b, dim, admitted",
    [
        (1, 500, 384, True), (2, 2048, 64, True), (37, 29, 16, True), (300, 200, 64, True),
        (2048 + 55, 300, 64, True),  # a 55-row tail block: just over 2^20 multiply-adds
        (2048 + 2, 2048 + 600, 384, True),  # a 2-row tail, large enough for the blocked GEMM
        (2048 + 1, 2500, 384, False),  # a one-row tail block is a GEMV
        (2048 + 3, 500, 64, False), (2050, 2500, 64, False),  # small-matrix tail blocks
    ],
)
def test_one_pass_admits_only_shapes_that_transpose(metric, n_a, n_b, dim, admitted):
    """What the one pass rests on: an admitted shape's two scans transpose to the bit."""
    rng = np.random.default_rng(n_a + n_b)
    vectors_a = rng.standard_normal((n_a, dim)).astype(np.float32)
    vectors_b = rng.standard_normal((n_b, dim)).astype(np.float32)
    assert mutual_module.one_pass_pair(vectors_a, vectors_b, 1, "brute-force", 10**6) == admitted
    forward = _scan_blocks(vectors_b, vectors_a)
    assert forward.T.tobytes() == _scan_blocks(vectors_a, vectors_b).tobytes() or not admitted


# ------------------------------------------------------------ allocation guard
def test_top1_query_allocates_no_index_slab():
    """Peak traced memory of a k = 1 query stays near the one float32 distance block.

    The historical body held the block plus ``argpartition``'s int64 slab
    (3.0 x the block); the top-1 step holds the block plus a boolean tie mask
    (1.27 x). No clock, CPU count or allocator is involved.
    """
    rng = np.random.default_rng(0)
    index = BruteForceIndex().build(rng.standard_normal((4000, 64)).astype(np.float32))
    queries = rng.standard_normal((2048, 64)).astype(np.float32)
    index.query(queries[:8], 1)
    tracemalloc.start()
    try:
        index.query(queries, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (2048 * 4000 * 4)


def test_one_pass_holds_one_block():
    """The one pass over a 2048 x 4000 block: one block alive, never both tie masks."""
    rng = np.random.default_rng(0)
    vectors_a = rng.standard_normal((2048, 64)).astype(np.float32)
    vectors_b = rng.standard_normal((4000, 64)).astype(np.float32)
    mutual_module.exact_top1_pairs(vectors_a[:8], vectors_b, 0.5)
    tracemalloc.start()
    try:
        mutual_module.exact_top1_pairs(vectors_a, vectors_b, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (2048 * 4000 * 4)
