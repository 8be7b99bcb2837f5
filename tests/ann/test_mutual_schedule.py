"""The merge schedule (trimmed backward, chunked queries) against the whole-batch reference.

``reference_mutual_top_k`` is the body ``mutual_top_k`` had before the
schedule existed: two whole-batch directed queries, untrimmed. The pair list
of a merge must equal it element for element — for the serial composition
(``mutual_top_k``) and for the scheduler (``merge_item_tables`` with an executor)
at every worker count, and on the one-pass path exact K = 1 pairs take.
"""

import numpy as np
import pytest

import repro.ann.mutual as mutual_module
import repro.core.merging as merging_module
from repro.ann import BruteForceIndex, create_index, mutual_top_k
from repro.ann.distances import paired_distances
from repro.config import MergingConfig, ParallelConfig
from repro.core.merging import ItemTable, merge_index_kwargs, merge_item_tables
from repro.core.parallel import ParallelExecutor

WORKERS = (1, 2, 3, 5)
#: The indexes' one metric, still a parameter so these test ids name it.
METRICS = ("cosine",)


def reference_mutual_top_k(vectors_a, vectors_b, *, k, max_distance, backend,
                           brute_force_limit=4096, index_kwargs=None):
    if vectors_a.shape[0] == 0 or vectors_b.shape[0] == 0:
        return []

    def build(vectors):
        return create_index(
            backend, size_hint=vectors.shape[0], brute_force_limit=brute_force_limit,
            **(index_kwargs or {}),
        ).build(vectors)

    def directed(index, queries):
        indices, distances = index.query(queries, k)
        keep = (indices >= 0) & np.isfinite(distances) & (distances <= max_distance)
        rows = np.broadcast_to(
            np.arange(indices.shape[0], dtype=np.int64)[:, None], indices.shape
        )[keep]
        return np.unique(np.stack([rows, indices[keep]], axis=1), axis=0)

    index_b, index_a = build(vectors_b), build(vectors_a)
    forward = {tuple(pair) for pair in directed(index_b, vectors_a).tolist()}
    backward = {(a, b) for b, a in directed(index_a, vectors_b).tolist()}
    mutual = sorted(forward & backward)
    if not mutual:
        return []
    lefts = np.array([a for a, _ in mutual], dtype=np.int64)
    rights = np.array([b for _, b in mutual], dtype=np.int64)
    dists = paired_distances(vectors_a[lefts], vectors_b[rights])
    order = np.lexsort((rights, lefts, dists))
    return [(int(lefts[i]), int(rights[i]), float(dists[i])) for i in order]


def _table(vectors, name):
    n = vectors.shape[0]
    return ItemTable(
        np.ascontiguousarray(vectors, dtype=np.float32),
        np.zeros(n, dtype=np.int32),
        np.arange(n, dtype=np.int64),
        np.arange(n + 1, dtype=np.int64),
        (name,),
    )


def _wave_pairs(monkeypatch, vectors_a, vectors_b, config, workers):
    """The MutualPair list ``merge_item_tables`` unions, captured at the pair-list tail."""
    seen = []
    original = mutual_module.canonical_pairs

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(mutual_module, "canonical_pairs", spy)
    with ParallelExecutor(ParallelConfig(enabled=True, max_workers=workers)) as executor:
        _, matched = merge_item_tables(
            _table(vectors_a, "A"), _table(vectors_b, "B"), config, executor=executor
        )
    monkeypatch.setattr(mutual_module, "canonical_pairs", original)
    # one merge, one pair list; an empty side never reaches the pair-list tail
    assert len(seen) == (len(vectors_a) > 0 and len(vectors_b) > 0)
    pairs = seen[0] if seen else []
    assert matched == len(pairs)
    return [(p.left, p.right, p.distance) for p in pairs]


def _check_all_schedules(monkeypatch, vectors_a, vectors_b, config):
    search = dict(
        k=config.k, max_distance=config.m, backend=config.index,
        brute_force_limit=config.brute_force_limit, index_kwargs=merge_index_kwargs(config),
    )
    want = reference_mutual_top_k(vectors_a, vectors_b, **search)
    serial = mutual_top_k(vectors_a, vectors_b, **search)
    assert [(p.left, p.right, p.distance) for p in serial] == want
    for workers in WORKERS:
        assert _wave_pairs(monkeypatch, vectors_a, vectors_b, config, workers) == want, workers
    return want


def _overlapping(n_a, n_b, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(max(n_a, n_b), dim)).astype(np.float32)
    a = base[:n_a] + rng.normal(scale=0.02, size=(n_a, dim)).astype(np.float32)
    b = base[rng.permutation(max(n_a, n_b))[:n_b]] + rng.normal(
        scale=0.02, size=(n_b, dim)
    ).astype(np.float32)
    return a, b


@pytest.mark.parametrize("backend", ["brute-force", "hnsw"])
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("k", [1, 3])
def test_trimmed_chunked_pairs_equal_whole_batch_reference(monkeypatch, backend, metric, k):
    a, b = _overlapping(90, 70)
    config = MergingConfig(index=backend, k=k, m=0.6)
    assert _check_all_schedules(monkeypatch, a, b, config), "the case must match something"


@pytest.mark.parametrize("backend", ["brute-force", "hnsw"])
def test_edge_shapes(monkeypatch, backend):
    rng = np.random.default_rng(3)
    a, b = _overlapping(40, 30, seed=3)
    # no forward survivor: the backward direction asks nothing
    assert _check_all_schedules(monkeypatch, a, b, MergingConfig(index=backend, m=1e-9)) == []
    # one empty side
    empty = np.zeros((0, a.shape[1]), dtype=np.float32)
    assert _check_all_schedules(monkeypatch, a, empty, MergingConfig(index=backend, m=0.6)) == []
    assert _check_all_schedules(monkeypatch, empty, b, MergingConfig(index=backend, m=0.6)) == []
    # fewer rows than workers on either side
    assert _check_all_schedules(monkeypatch, a[:2], b[:3], MergingConfig(index=backend, m=2.0, k=3))
    # duplicate rows and exact ties
    rows = rng.normal(size=(6, a.shape[1])).astype(np.float32)
    dup_a, dup_b = np.repeat(rows, 4, axis=0), np.repeat(rows[::-1], 3, axis=0)
    assert _check_all_schedules(monkeypatch, dup_a, dup_b, MergingConfig(index=backend, m=0.5, k=3))


def test_auto_pair_keeps_the_brute_direction_whole_and_untrimmed(monkeypatch):
    """One side over ``brute_force_limit``: HNSW direction chunked, GEMM direction one call."""
    a, b = _overlapping(120, 40, seed=5)  # a → hnsw, b → brute force
    config = MergingConfig(index="auto", brute_force_limit=64, m=0.6)
    brute_batches = []
    original = BruteForceIndex.query

    def counting(self, queries, k):
        brute_batches.append(queries.shape[0])
        return original(self, queries, k)

    monkeypatch.setattr(BruteForceIndex, "query", counting)
    # forward (a-rows against the brute index over b): every wave asks all 120 rows at once
    assert _wave_pairs(monkeypatch, a, b, config, 3) == _wave_pairs(monkeypatch, a, b, config, 1)
    assert brute_batches == [120, 120]
    # backward against a brute index: all rows of b, including those forward never returned
    brute_batches.clear()
    want = _wave_pairs(monkeypatch, b, a, config, 3)
    assert brute_batches == [120]
    monkeypatch.setattr(BruteForceIndex, "query", original)
    assert want == reference_mutual_top_k(
        b, a, k=config.k, max_distance=config.m, backend="auto",
        brute_force_limit=64, index_kwargs=merge_index_kwargs(config),
    )


# ------------------------------------------------------------ one-pass exact pairs
def _merged_bytes(table):
    return tuple(
        getattr(table, name).tobytes()
        for name in ("vectors", "member_sources", "member_indices", "member_offsets")
    ) + (table.sources,)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs)
    )
    return calls


def test_mixed_wave_is_worker_count_invariant(monkeypatch):
    """One exact K = 1 pair beside one graph pair in one schedule: the same tables at any width."""
    small, big = _overlapping(40, 35, seed=7), _overlapping(120, 100, seed=8)
    pairs = [
        (_table(small[0], "A"), _table(small[1], "B")),
        (_table(big[0], "C"), _table(big[1], "D")),
    ]
    config = MergingConfig(index="auto", brute_force_limit=64, m=0.6)
    with ParallelExecutor(ParallelConfig(enabled=False)) as serial:
        alone = [merge_item_tables(left, right, config, executor=serial) for left, right in pairs]
    one_pass = _counting(monkeypatch, merging_module, "exact_top1_pairs")
    for workers in (None, 2, 5):
        parallel = {"enabled": False} if workers is None else {"max_workers": workers}
        with ParallelExecutor(ParallelConfig(**parallel)) as executor:
            merges = [merging_module._Merge(1, 0, 1), merging_module._Merge(1, 2, 3)]
            tables = [table for pair in pairs for table in pair]
            schedule = merging_module._MergeSchedule(tables, merges, config, executor, "mean")
            schedule.run()
            wave = list(zip(schedule.nodes[4:], schedule.matched))
        assert [(_merged_bytes(t), n) for t, n in wave] == [(_merged_bytes(t), n) for t, n in alone]
    assert len(one_pass) == 3, "the exact pair must take the one pass, the graph pair must not"
    assert alone[0][1] and alone[1][1]


def test_a_failed_probe_sends_exact_pairs_to_two_scans(monkeypatch):
    """With the transposition probe failing, exact pairs take two scans: same bytes, one warning."""
    import warnings

    from repro.ann.distances import PreparedVectors

    a, b = _overlapping(90, 70)
    config = MergingConfig(index="brute-force", m=0.6)
    want = reference_mutual_top_k(a, b, k=1, max_distance=0.6, backend="brute-force")
    merged = merge_item_tables(_table(a, "A"), _table(b, "B"), config)

    class Skewed(PreparedVectors):  # a BLAS whose scans do not transpose
        def block_distances(self, prepared_queries, rows=None):
            return super().block_distances(prepared_queries, rows) + prepared_queries.shape[0]

    monkeypatch.setattr(mutual_module, "PreparedVectors", Skewed)
    one_pass = _counting(monkeypatch, merging_module, "exact_top1_pairs")
    one_pass_direct = _counting(monkeypatch, mutual_module, "exact_top1_pairs")
    mutual_module._scans_transpose.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            serial = mutual_top_k(a, b, k=1, max_distance=0.6, backend="brute-force")
            waves = []
            for workers in (1, 2):
                with ParallelExecutor(ParallelConfig(max_workers=workers)) as executor:
                    tables = _table(a, "A"), _table(b, "B")
                    waves.append(merge_item_tables(*tables, config, executor=executor))
    finally:
        mutual_module._scans_transpose.cache_clear()
    messages = [str(warning.message) for warning in caught]
    assert len(messages) == 1 and "exact merges take two scans" in messages[0], messages
    assert one_pass == [] and one_pass_direct == []
    assert [(p.left, p.right, p.distance) for p in serial] == want
    for table, matched in waves:
        assert (_merged_bytes(table), matched) == (_merged_bytes(merged[0]), merged[1])
