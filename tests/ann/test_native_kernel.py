"""Native HNSW kernel vs pure-Python path: byte identity on randomized inputs.

The runtime-compiled kernel (``repro/ann/native.py``) must produce graphs and
query results identical to the Python loops — it runs the same algorithm and
calls the same OpenBLAS routines. When the kernel is unavailable (no
toolchain, ``REPRO_NATIVE=0``), both paths are the Python path and the tests
still hold trivially.
"""

import os

import numpy as np
import pytest

from repro.ann import native
from repro.ann.hnsw import HNSWIndex
from repro.exceptions import IndexError_

#: The indexes' one metric, still a parameter so these test ids name it.
METRICS = ("cosine",)


def _pair(seed, **kwargs):
    python_index = HNSWIndex(seed=seed, **kwargs)
    python_index._use_native = False
    native_index = HNSWIndex(seed=seed, **kwargs)
    native_index._use_native = True
    return python_index, native_index


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_native_build_and_query_bitwise_match(metric, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(220, 19)).astype(np.float32)
    vectors[9] = vectors[2]  # exact duplicate rows → distance ties
    queries = rng.normal(size=(40, 19)).astype(np.float32)
    python_index, native_index = _pair(seed, max_degree=5, ef_construction=25, ef_search=17)
    python_index.build(vectors)
    native_index.build(vectors)
    for k in (1, 3, 20):
        p_idx, p_dist = python_index.query(queries, k)
        n_idx, n_dist = native_index.query(queries, k)
        assert np.array_equal(p_idx, n_idx)
        assert p_dist.tobytes() == n_dist.tobytes()


@pytest.mark.parametrize("metric", METRICS)
def test_native_build_extend_query_match_python_at_bench_width(metric):
    """Build + query at d = 384 (the benchmark's width): the load-time
    self-test covers 32, 72 and 37. The id predates the build-once index."""
    rng = np.random.default_rng(384)
    vectors = rng.normal(size=(200, 384)).astype(np.float32)
    vectors[150] = vectors[20]  # exact duplicate rows → distance ties
    error = native._hnsw_pair_error(
        vectors, vectors[:30], ks=(1, 4), label=" d=384",
        max_degree=6, ef_construction=32, ef_search=20, seed=5,
    )
    assert error is None, error


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [8, 12, 36, 384, 4096, 4100])
def test_native_hnsw_matches_python_at_every_distance_dispatch_edge(metric, d, monkeypatch):
    """Build + query bytes agree on both sides of every dispatch edge.

    ``base_row_distances`` picks its routine by row count k and width d:
    k = 1 (sdot), 2 ≤ k ≤ 256 (AVX2 micro-kernels), k > 256 (BLAS sgemv), and
    d ≤ 8 / d % 4 ≠ 0 / d > 4096 (BLAS on either variant). Level 0 holds up to
    ``2 * max_degree`` = 258 neighbours, so expanding a well-connected node
    evaluates more than 256 rows at once; the python path's call sizes are
    recorded to prove every k band was reached. A duplicated row adds ties.
    """
    from repro.ann.distances import PreparedVectors

    sizes = set()
    row_distances = PreparedVectors.row_distances

    def recording(self, prepared_query, rows):
        sizes.add(len(rows))
        return row_distances(self, prepared_query, rows)

    monkeypatch.setattr(PreparedVectors, "row_distances", recording)
    rng = np.random.default_rng(d)
    vectors = rng.normal(size=(320, d)).astype(np.float32)
    vectors[291] = vectors[3]  # exact tie, far apart in the base
    queries = np.concatenate([vectors[:6], rng.normal(size=(6, d)).astype(np.float32)])
    error = native._hnsw_pair_error(
        vectors, queries, ks=(1, 5), label=f" d={d}",
        max_degree=129, ef_construction=200, ef_search=20, seed=d,
    )
    assert error is None, error
    assert 1 in sizes and sizes & set(range(2, 257)) and max(sizes) > 256, sorted(sizes)


@pytest.mark.parametrize("metric", METRICS)
def test_native_hnsw_matches_python_when_most_distances_tie(metric):
    """300 rows from 12 vectors: the heaps, the sort and the k = 1 minimum
    all decide between equal distances by node id alone.

    Draw weights fall geometrically, so groups of 2 to 99 copies sit beside
    each other, and ef_search = 10 makes the result heap evict inside a
    group: a kernel that reverses the node tie-break of any of the four
    (candidate heap, result heap, sort, minimum) fails here.
    """
    rng = np.random.default_rng(12)
    distinct = rng.normal(size=(12, 24)).astype(np.float32)
    weights = 0.7 ** np.arange(12)
    vectors = distinct[rng.choice(12, size=300, p=weights / weights.sum())]
    queries = np.concatenate([distinct, vectors[::15]])
    error = native._hnsw_pair_error(
        vectors, queries, ks=(1, 5, 20), label=" ties",
        max_degree=6, ef_construction=150, ef_search=10, seed=12,
    )
    assert error is None, error


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("flaw", ["nan_row", "inf_element"])
def test_hnsw_refuses_non_finite_rows_before_either_path_runs(metric, flaw):
    """A NaN distance has no place in the (distance, node) order both paths
    rely on, so build and query name the first bad row instead."""
    rng = np.random.default_rng(200)
    vectors = rng.normal(size=(200, 32)).astype(np.float32)
    if flaw == "nan_row":
        vectors[[37, 90, 151]] = np.nan
        first = 37
    else:
        vectors[64, 5] = np.inf
        first = 64
    for use_native in (False, True):
        index = HNSWIndex(max_degree=6, ef_construction=30, seed=7)
        index._use_native = use_native
        with pytest.raises(IndexError_, match=f"vectors row {first} has a non-finite"):
            index.build(vectors)
        index.build(vectors[:30])
        with pytest.raises(IndexError_, match=f"query row {first} has a non-finite"):
            index.query(vectors, 1)
        assert index.size == 30


def test_an_index_past_the_node_id_bits_keeps_to_the_python_path(monkeypatch):
    """Node ids share a 64-bit heap key with the distance, so the kernel only
    sees indexes below ``_NATIVE_MAX_NODES`` (2**31; lowered here to 100)."""
    from repro.ann import hnsw

    calls = []
    get_kernel = native.get_kernel

    def counting():
        calls.append(1)
        return get_kernel()

    native.get_kernel()  # load first: the self-test's own builds are not counted
    monkeypatch.setattr(hnsw, "_NATIVE_MAX_NODES", 100)
    monkeypatch.setattr(native, "get_kernel", counting)
    rng = np.random.default_rng(100)
    vectors = rng.normal(size=(120, 16)).astype(np.float32)
    HNSWIndex(max_degree=5, ef_construction=20, seed=1).build(vectors[:60])
    assert len(calls) == 1
    index = HNSWIndex(max_degree=5, ef_construction=20, seed=1).build(vectors)
    index.query(vectors[:5], 3)
    assert len(calls) == 1
    reference = HNSWIndex(max_degree=5, ef_construction=20, seed=1)
    reference._use_native = False
    reference.build(vectors)
    for got, want in zip(index.query(vectors[:20], 3), reference.query(vectors[:20], 3)):
        assert got.tobytes() == want.tobytes()


def test_loader_rejects_a_variant_that_fails_its_self_test(monkeypatch):
    """A non-bit-equal AVX2 variant is never served: auto falls back to scalar,
    a pinned ``avx2`` disables the kernel with the self-test failure as reason."""
    import shutil

    if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false"):
        pytest.skip("native kernel explicitly disabled")
    if shutil.which(os.environ.get("CC", "gcc")) is None:
        pytest.skip("no C compiler on this machine")
    if not native._cpu_supports_avx2():
        pytest.skip("CPU lacks AVX2+FMA3")
    if native.get_kernel() is None:
        pytest.skip(f"environment limitation: {native.disabled_reason}")
    real_self_test = native._self_test

    def failing_on_avx2():
        if native._probing is not None and native._probing.variant == "avx2":
            return "forced divergence"
        return real_self_test()

    # monkeypatch restores the module globals, so later tests see the real kernel.
    monkeypatch.setattr(native, "_self_test", failing_on_avx2)
    for variant, want in (("auto", "scalar"), ("avx2", None)):
        monkeypatch.setenv("REPRO_NATIVE_VARIANT", variant)
        monkeypatch.setattr(native, "_loaded", False)
        monkeypatch.setattr(native, "_kernel", None)
        monkeypatch.setattr(native, "disabled_reason", None)
        kernel = native._load_kernel()
        assert (None if kernel is None else kernel.variant) == want
    assert "byte-identity self-test failed" in native.disabled_reason


def test_native_kernel_status_is_deterministic():
    """get_kernel() caches its decision; a disabled kernel reports why."""
    first = native.get_kernel()
    second = native.get_kernel()
    assert first is second
    if first is None:
        assert native.disabled_reason


def test_native_kernel_active_when_toolchain_present():
    """A compile or self-test regression must fail loudly, not silently fall back.

    Skips only for genuine environment limitations (no C compiler, no
    resolvable ILP64 OpenBLAS, or an explicit REPRO_NATIVE opt-out); any other
    unavailability means the kernel regressed and the headline speedup is
    silently gone.
    """
    import shutil

    if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false"):
        pytest.skip("native kernel explicitly disabled")
    if shutil.which(os.environ.get("CC", "gcc")) is None:
        pytest.skip("no C compiler on this machine")
    kernel = native.get_kernel()
    if kernel is None and native.disabled_reason and "OpenBLAS" in native.disabled_reason:
        pytest.skip(f"environment limitation: {native.disabled_reason}")
    assert kernel is not None, f"native kernel regressed: {native.disabled_reason}"


def test_kernel_source_has_no_dead_helper_or_orphaned_export(tmp_path):
    """Every variant compiles warning-free and every export is bound, with
    as many ``argtypes`` as its C prototype has parameters.

    ``-Wunused-function`` catches a ``static`` helper whose last caller was
    deleted, ``-Wunused-parameter`` a parameter nothing reads any more; the
    export check catches a public entry point ``NativeKernel`` no longer
    reaches. ctypes does not check a call against the C signature, so an
    ``argtypes`` list that drifted from its prototype is undefined behaviour,
    not an error: the arity check catches it.
    """
    import re
    import shutil
    import subprocess

    compiler = os.environ.get("CC", "gcc")
    if shutil.which(compiler) is None:
        pytest.skip("no C compiler on this machine")
    for variant, flags in native._VARIANT_FLAGS.items():
        # A real compile: under -fsyntax-only gcc skips -Wunused-function.
        completed = subprocess.run(
            [compiler, *flags, "-c", "-o", str(tmp_path / f"{variant}.o"), "-Wall",
             "-Wunused-function", "-Wunused-variable", "-Wunused-parameter", "-Werror",
             native._SOURCE],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, f"{variant}: {completed.stderr[-2000:]}"
    with open(native._SOURCE) as handle:
        source = handle.read()
    exported = {
        name: 0 if params.strip() in ("", "void") else params.count(",") + 1
        for name, params in re.findall(
            r"^(?!static\b)\w[\w \*]*?\b(\w+)\(([^;]*?)\)\s*\{", source, re.M
        )
    }

    class Library:
        """Stands in for the loaded object: records what ``NativeKernel`` binds."""

        def __getattr__(self, name):
            function = lambda: 0  # noqa: E731 - ann_kernel_variant() answers "scalar"
            setattr(self, name, function)
            return function

    library = Library()
    native.NativeKernel(library, blas=None)
    bound = {name: len(function.argtypes) for name, function in vars(library).items()}
    assert exported and exported == bound
