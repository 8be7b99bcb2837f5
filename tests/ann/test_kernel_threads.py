"""Thread-count invariance of the native HNSW build, plus the quantized scan.

The threaded build (``kernel_threads >= 2``) speculates candidate searches on
a worker pool but commits results in insertion order, validating each
speculation's read set against the round-start graph — so the graph it
produces is byte-identical to the sequential build at any thread count. These
tests pin that contract across build, extend, query, snapshot round trips,
and the thread-pool merge path, and pin the opt-in int8 quantized scan's
recall-==-1 contract against the dense exact scan.
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, engine
from repro.ann.cache import CONTENT_NEUTRAL_PARAMS, index_params_key
from repro.ann.distances import PreparedVectors
from repro.exceptions import IndexError_

THREAD_COUNTS = (1, 2, 8)


def _graph_bytes(index: HNSWIndex) -> tuple:
    """Full graph state as comparable bytes (adjacency, levels, entry)."""
    n = len(index._node_levels)
    layers = []
    for layer in range(len(index._layer_neighbors)):
        layers.append(
            (
                index._layer_neighbors[layer][:n].tobytes(),
                index._layer_dists[layer][:n].tobytes(),
                index._layer_degrees[layer][:n].tobytes(),
            )
        )
    return (tuple(index._node_levels), index._entry_point, index._max_level, tuple(layers))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((500, 40)).astype(np.float32)
    queries = rng.standard_normal((30, 40)).astype(np.float32)
    return vectors, queries


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_build_byte_identical_across_thread_counts(corpus, metric):
    vectors, queries = corpus
    reference = None
    for threads in THREAD_COUNTS:
        index = HNSWIndex(metric, max_degree=8, seed=5, kernel_threads=threads).build(vectors)
        state = _graph_bytes(index)
        idx, dist = index.query(queries, 4)
        result = (state, idx.tobytes(), dist.tobytes())
        if reference is None:
            reference = result
        else:
            assert result == reference, f"kernel_threads={threads} diverged ({metric})"


def test_extend_byte_identical_across_thread_counts(corpus):
    vectors, queries = corpus
    reference = None
    for threads in THREAD_COUNTS:
        index = HNSWIndex("cosine", seed=2, kernel_threads=threads)
        index.build(vectors[:300]).extend(vectors[300:])
        idx, dist = index.query(queries, 5)
        result = (_graph_bytes(index), idx.tobytes(), dist.tobytes())
        if reference is None:
            reference = result
        else:
            assert result == reference, f"extend at kernel_threads={threads} diverged"


def test_snapshot_roundtrip_then_extend_is_thread_invariant(corpus):
    """save → load → extend continues byte-identically at any thread count."""
    vectors, queries = corpus
    reference = None
    for threads in THREAD_COUNTS:
        index = HNSWIndex("cosine", seed=9, kernel_threads=threads).build(vectors[:350])
        meta, arrays = index.snapshot_state()
        assert "kernel_threads" not in meta, "content-neutral knob leaked into snapshot"
        restored = HNSWIndex.from_snapshot_state(meta, arrays)
        restored.kernel_threads = threads  # snapshot carries no thread count
        restored.extend(vectors[350:])
        idx, dist = restored.query(queries, 4)
        result = (_graph_bytes(restored), idx.tobytes(), dist.tobytes())
        if reference is None:
            reference = result
        else:
            assert result == reference, f"snapshot+extend at kernel_threads={threads} diverged"


def test_clone_copies_kernel_threads(corpus):
    vectors, _ = corpus
    index = HNSWIndex("cosine", seed=1, kernel_threads=4).build(vectors[:100])
    assert index.clone().kernel_threads == 4


def test_kernel_threads_validation():
    with pytest.raises(IndexError_):
        HNSWIndex(kernel_threads=0)


def test_thread_pool_merge_thread_invariant():
    """A pooled merge with kernel_threads=2 matches the serial 1-thread run."""
    from repro.config import MergingConfig, ParallelConfig
    from repro.core.merging import ItemTable, hierarchical_merge_tables
    from repro.core.parallel import ParallelExecutor

    tables = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((80, 16)).astype(np.float32)
        tables.append(
            ItemTable(
                vectors,
                np.zeros(80, dtype=np.int32),
                np.arange(80, dtype=np.int64),
                np.arange(81, dtype=np.int64),
                (f"s{seed}",),
            )
        )
    # Force HNSW (brute_force_limit=1) so the threaded build actually runs.
    serial_config = MergingConfig(index="hnsw", brute_force_limit=1, m=0.8)
    serial, _ = hierarchical_merge_tables([t for t in tables], serial_config)
    threaded_config = MergingConfig(index="hnsw", brute_force_limit=1, m=0.8, kernel_threads=2)
    with ParallelExecutor(ParallelConfig(enabled=True, backend="thread", max_workers=2)) as ex:
        merged, _ = hierarchical_merge_tables([t for t in tables], threaded_config, executor=ex)
    assert np.array_equal(merged.vectors, serial.vectors)
    assert np.array_equal(merged.member_offsets, serial.member_offsets)
    assert np.array_equal(merged.member_indices, serial.member_indices)


def test_pipeline_copies_parallel_kernel_threads():
    """ParallelConfig.kernel_threads reaches the merging stage's config."""
    from repro.config import MultiEMConfig

    config = MultiEMConfig().with_overrides(parallel={"kernel_threads": 3})
    assert config.parallel.kernel_threads == 3
    # the pipeline copies it onto merging lazily; the index kwargs plumbing
    # is covered by the params-key tests below and the merge test above


def test_index_params_key_drops_content_neutral_knobs():
    assert "kernel_threads" in CONTENT_NEUTRAL_PARAMS
    one = index_params_key("hnsw", "cosine", {"seed": 0, "kernel_threads": 1})
    eight = index_params_key("hnsw", "cosine", {"seed": 0, "kernel_threads": 8})
    assert one == eight, "thread count must not split cache entries"
    plain = index_params_key("brute-force", "cosine", {"quantized_scan": False})
    quant = index_params_key("brute-force", "cosine", {"quantized_scan": True})
    assert plain != quant, "quantized_scan changes the query path and must stay keyed"


# --------------------------------------------------------- quantized scan
@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_quantized_scan_recall_matches_exact(corpus, metric):
    """Opt-in quantized path: same neighbour ids as the dense exact scan.

    Distances may differ in the last bit (the exact path scores through a
    blocked GEMM, the re-rank through per-segment GEMV), so ids are compared
    exactly and distances with a tight tolerance.
    """
    vectors, queries = corpus
    exact = BruteForceIndex(metric).build(vectors)
    quantized = BruteForceIndex(metric, quantized_scan=True).build(vectors)
    for k in (1, 5, 17):
        exact_idx, exact_dist = exact.query(queries, k)
        quant_idx, quant_dist = quantized.query(queries, k)
        assert np.array_equal(exact_idx, quant_idx), f"recall < 1 at k={k} ({metric})"
        assert np.allclose(exact_dist, quant_dist, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_quantized_scan_native_matches_python(corpus, metric):
    vectors, queries = corpus
    prepared = PreparedVectors(vectors, metric)
    plane = engine.QuantizedPlane(prepared)
    qcodes, qscales = plane.quantize_queries(prepared.prepare_queries(queries))
    for c in (4, 33, 200):
        native_rows = engine.quantized_scan_rows(plane, qcodes, qscales, c, use_native=True)
        python_rows = engine.quantized_scan_rows(plane, qcodes, qscales, c, use_native=False)
        assert np.array_equal(native_rows, python_rows), f"scan diverged at c={c} ({metric})"


def test_quantized_scan_is_opt_in(corpus):
    vectors, _ = corpus
    assert BruteForceIndex().quantized_scan is False
    from repro.config import MergingConfig

    assert MergingConfig().quantized_scan is False
    meta, _ = BruteForceIndex("cosine").build(vectors[:50]).snapshot_state()
    assert meta["quantized_scan"] is False


def test_quantized_flag_survives_snapshot_and_clone(corpus):
    vectors, queries = corpus
    index = BruteForceIndex("cosine", quantized_scan=True).build(vectors)
    meta, arrays = index.snapshot_state()
    restored = BruteForceIndex.from_snapshot_state(meta, arrays)
    assert restored.quantized_scan is True
    assert index.clone().quantized_scan is True
    want_idx, want_dist = index.query(queries, 3)
    got_idx, got_dist = restored.query(queries, 3)
    assert np.array_equal(want_idx, got_idx)
    assert want_dist.tobytes() == got_dist.tobytes()


def test_quantized_plane_rebuilt_after_extend(corpus):
    """extend invalidates the derived plane; results match a fresh build."""
    vectors, queries = corpus
    grown = BruteForceIndex("cosine", quantized_scan=True).build(vectors[:300])
    grown.query(queries, 3)  # materialize the plane over the prefix
    grown.extend(vectors[300:])
    fresh = BruteForceIndex("cosine", quantized_scan=True).build(vectors)
    got_idx, got_dist = grown.query(queries, 3)
    want_idx, want_dist = fresh.query(queries, 3)
    assert np.array_equal(got_idx, want_idx)
    assert got_dist.tobytes() == want_dist.tobytes()


def test_quantized_zero_block_and_tiny_corpus():
    """All-zero blocks quantize with scale 1.0; c clamps to the corpus size."""
    vectors = np.zeros((5, 8), dtype=np.float32)
    vectors[0, 0] = 1.0
    index = BruteForceIndex("euclidean", quantized_scan=True).build(vectors)
    idx, dist = index.query(np.zeros((2, 8), dtype=np.float32), 3)
    exact_idx, exact_dist = BruteForceIndex("euclidean").build(vectors).query(
        np.zeros((2, 8), dtype=np.float32), 3
    )
    assert np.array_equal(idx, exact_idx)
    assert np.allclose(dist, exact_dist)
