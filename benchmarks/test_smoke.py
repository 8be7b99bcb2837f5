"""Benchmark smoke checks: the ANN merging path at tiny scale.

These run inside tier-1 (the filename matches the default ``test_*`` pattern,
unlike the heavyweight ``bench_*`` modules) so an accidental performance
cliff in the ANN layer — e.g. falling back to per-call re-normalization or a
quadratic candidate scan — fails loudly instead of only showing up when
someone reruns the full benchmarks. Select them alone with
``python -m pytest benchmarks -q -m smoke``.
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.ann import BruteForceIndex, HNSWIndex, mutual_top_k

# Generous ceilings: the operations below take well under a second on any
# recent machine, so tripping these means an order-of-magnitude regression
# (or a hang), not noise.
MERGE_CEILING_SECONDS = 20.0
QUERY_CEILING_SECONDS = 5.0


@pytest.fixture(scope="module")
def smoke_vectors() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(600, 64)).astype(np.float32)
    b = a[rng.permutation(600)] + rng.normal(scale=0.01, size=(600, 64)).astype(np.float32)
    return a, b


@pytest.mark.smoke
def test_smoke_hnsw_merge_agrees_with_exact_and_is_fast(smoke_vectors):
    a, b = smoke_vectors
    started = time.perf_counter()
    approx = mutual_top_k(a, b, k=1, max_distance=0.3, backend="hnsw")
    elapsed = time.perf_counter() - started
    exact = mutual_top_k(a, b, k=1, max_distance=0.3, backend="brute-force")
    exact_pairs = {(p.left, p.right) for p in exact}
    approx_pairs = {(p.left, p.right) for p in approx}
    overlap = len(exact_pairs & approx_pairs) / max(len(exact_pairs), 1)
    assert overlap >= 0.95, f"HNSW recall collapsed: {overlap:.2%}"
    assert elapsed < MERGE_CEILING_SECONDS, f"HNSW merge path took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_pipeline_module_times():
    """Tiny end-to-end HNSW pipeline run with its per-stage (S/R/M/P) timings.

    Catches order-of-magnitude pipeline regressions early; the measured
    breakdown at benchmark scale is ``python3 bench/run.py``'s job.
    """
    from repro.config import paper_default_config
    from repro.core import MultiEM
    from repro.data.generators import load_benchmark

    dataset = load_benchmark("music-20", profile="tiny")
    config = paper_default_config("music-20").with_overrides(merging={"index": "hnsw"})
    started = time.perf_counter()
    result = MultiEM(config).match(dataset)
    elapsed = time.perf_counter() - started
    stages = result.timings.as_dict()
    print("\n  " + " ".join(f"{name}={seconds:.2f}s" for name, seconds in stages.items()))
    assert len(result.tuples) > 0
    assert all(seconds >= 0 for seconds in stages.values())
    assert elapsed < MERGE_CEILING_SECONDS, f"tiny pipeline took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_encoder_batch_fast_path_is_exercised():
    """A real pipeline run must flow through the columnar encoder fast path.

    Injects the encoder into MultiEM and checks its batch counters after the
    run: every encode (attribute selection *and* representation) must take
    the CSR token-table path — a silent fallback to per-text encoding would
    be an order-of-magnitude front-end regression at bench scale.
    """
    from repro.config import paper_default_config
    from repro.core import MultiEM
    from repro.data.generators import load_benchmark
    from repro.embedding import HashedNGramEncoder

    dataset = load_benchmark("music-20", profile="tiny")
    encoder = HashedNGramEncoder()
    config = paper_default_config("music-20").with_overrides(merging={"index": "hnsw"})
    started = time.perf_counter()
    result = MultiEM(config, encoder=encoder).match(dataset)
    elapsed = time.perf_counter() - started
    assert result.tuples, "pipeline produced no tuples"
    assert encoder.batch_encodes > 0, "columnar batch encode path never ran"
    assert encoder.tokens_pooled > 0, "CSR pooling kernel pooled no tokens"
    # Attribute selection must splice off the shared column token index: the
    # fast path encodes base + p shuffles without serializing texts, so the
    # batch counter covers at least (schema size + 1) selection passes plus
    # one representation pass per source table.
    expected_passes = len(dataset.schema) + 1 + len(dataset.table_list())
    assert encoder.batch_encodes >= expected_passes, (
        f"expected >= {expected_passes} batch passes, saw {encoder.batch_encodes}"
    )
    assert elapsed < MERGE_CEILING_SECONDS, f"tiny pipeline took {elapsed:.1f}s"


_REQUIRE_SNIPPET = """\
import numpy as np
from repro.ann import HNSWIndex, mutual_top_k
from repro.ann import native

assert native.get_kernel() is not None  # require-mode would have raised already
rng = np.random.default_rng(0)
vectors = rng.normal(size=(300, 32)).astype(np.float32)
queries = vectors[:40] + rng.normal(scale=0.01, size=(40, 32)).astype(np.float32)
hnsw_idx, _ = HNSWIndex(seed=0).build(vectors).query(queries, 3)
assert (hnsw_idx[:, 0] >= 0).all()
pairs = mutual_top_k(vectors[:150], vectors[150:], k=1, max_distance=0.5, backend="hnsw")
print("REQUIRE-OK", len(pairs))
"""


@pytest.mark.smoke
def test_smoke_native_require_leg():
    """``REPRO_NATIVE=require`` end-to-end: the kernel must engage for HNSW.

    Runs a subprocess so the strict mode is exercised from a cold import:
    any compile, BLAS-resolution, or byte-identity regression fails loudly
    there instead of silently costing the native speedup. Skips — with the
    concrete reason — only for genuine environment limitations (no C
    compiler, no resolvable wheel-bundled ILP64 OpenBLAS, or an explicit
    ``REPRO_NATIVE`` opt-out in the outer environment).
    """
    if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false"):
        pytest.skip("native kernel explicitly disabled via REPRO_NATIVE")
    if shutil.which(os.environ.get("CC", "gcc")) is None:
        pytest.skip("REPRO_NATIVE=require needs a C compiler; none on this machine")
    from repro.ann import native

    if native.get_kernel() is None:
        pytest.skip(f"environment limitation: {native.disabled_reason}")
    src_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "REPRO_NATIVE": "require"}
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _REQUIRE_SNIPPET], capture_output=True, text=True, env=env
    )
    assert completed.returncode == 0, (
        f"REPRO_NATIVE=require leg failed:\n{completed.stderr[-2000:]}"
    )
    assert "REQUIRE-OK" in completed.stdout


@pytest.mark.smoke
def test_smoke_snapshot_chain_roundtrip(tmp_path):
    """save → append → compact → load: every path lands on the same digests.

    The tier-1 guarantee for the delta-chain store: a rolling-ingest delta
    and its compaction both reconstruct exactly the state the live matcher
    held, and the delta genuinely writes less than the base it extends.
    """
    from repro.config import paper_default_config
    from repro.core.incremental import IncrementalMultiEM
    from repro.data.generators import load_benchmark
    from repro.store import compact_session, load_matcher
    from repro.store.codecs import embedding_store_digest, item_table_digest

    dataset = load_benchmark("music-20", profile="tiny")
    names = sorted(dataset.tables)
    matcher = IncrementalMultiEM(paper_default_config("music-20"))
    started = time.perf_counter()
    matcher.fit(dataset.subset(names[:-1], name=dataset.name))
    base = tmp_path / "s.snap"
    matcher.save(base)
    matcher.add_table(dataset.tables[names[-1]])
    delta = tmp_path / "s.snap.d1"
    matcher.save(delta)  # auto mode: a base exists, so this is a chain delta
    want_table = item_table_digest(matcher.integrated_table)
    want_store = embedding_store_digest(matcher._store)
    matcher.close()
    compacted = tmp_path / "compacted.snap"
    compact_session(delta, compacted)
    assert delta.stat().st_size < base.stat().st_size, "delta did not save bytes"
    for path in (delta, compacted):
        loaded = load_matcher(path)
        assert item_table_digest(loaded.integrated_table) == want_table
        assert embedding_store_digest(loaded._store) == want_store
        loaded.close()
    elapsed = time.perf_counter() - started
    assert elapsed < MERGE_CEILING_SECONDS, f"chain round trip took {elapsed:.1f}s"


@pytest.mark.smoke
def test_smoke_brute_force_batched_query(smoke_vectors):
    a, b = smoke_vectors
    index = BruteForceIndex(batch_size=128).build(a)
    started = time.perf_counter()
    indices, distances = index.query(b, 5)
    elapsed = time.perf_counter() - started
    assert indices.shape == (len(b), 5)
    assert np.isfinite(distances[:, 0]).all()
    assert elapsed < QUERY_CEILING_SECONDS, f"brute-force batch query took {elapsed:.1f}s"


_MATRIX_SNIPPET = """\
import hashlib
import numpy as np
from repro.ann import HNSWIndex
from repro.ann import native

rng = np.random.default_rng(7)
vectors = rng.standard_normal((250, 36)).astype(np.float32)
queries = rng.standard_normal((25, 36)).astype(np.float32)
index = HNSWIndex(seed=4).build(vectors)
idx, dist = index.query(queries, 4)
digest = hashlib.blake2b(digest_size=16)
for layer in range(len(index._layer_neighbors)):
    digest.update(index._layer_neighbors[layer][:250].tobytes())
    digest.update(index._layer_dists[layer][:250].tobytes())
digest.update(idx.tobytes())
digest.update(dist.tobytes())

# The pipeline under the default (thread pool) config and its serial twin:
# one tuple set inside a leg, and (through the digest) across the legs.
from repro.config import paper_default_config
from repro.core import MultiEM
from repro.data.generators import load_benchmark

dataset = load_benchmark("music-20", profile="tiny")
tuple_sets = []
for parallel in (True, False):
    config = paper_default_config("music-20", parallel=parallel).with_overrides(
        merging={"index": "hnsw"}
    )
    result = MultiEM(config).match(dataset)
    assert result.method == ("MultiEM (parallel)" if parallel else "MultiEM")
    tuple_sets.append(sorted(sorted((r.source, r.index) for r in t) for t in result.tuples))
assert tuple_sets[0] == tuple_sets[1], "serial and threaded pipelines disagree"
digest.update(repr(tuple_sets[0]).encode())

# The exact scan, which neither leg above reaches: duplicated rows on both
# sides put exact distance ties on its top-1 fallback; k = 2 is the full body.
from repro.ann import mutual_top_k

base = np.round(rng.standard_normal((30, 12)), 1).astype(np.float32)
side_a = base[rng.integers(30, size=70)]
side_b = base[rng.integers(30, size=50)]
for k in (1, 2):
    pairs = mutual_top_k(side_a, side_b, k=k, max_distance=0.5, backend="brute-force")
    assert pairs, "the tied tables produced no mutual pair"
    digest.update(repr([(p.left, p.right, p.distance) for p in pairs]).encode())

# HNSW on both sides of the AVX2 envelope: at d = 36 the kernel reads
# candidate rows in place, at d = 37 it gathers them for the BLAS sgemv call.
# Level 0 holds up to 2 * 129 = 258 neighbours, so expansions also evaluate
# more than 256 rows at once (the BLAS path at either width).
for d in (36, 37):
    rows = rng.standard_normal((320, d)).astype(np.float32)
    wide = HNSWIndex(max_degree=129, ef_construction=200, seed=d)
    wide.build(rows)
    indices, distances = wide.query(rows[:8] + 0.01, 5)
    digest.update(wide._layer_neighbors[0][:320].tobytes())
    digest.update(indices.tobytes())
    digest.update(distances.tobytes())

# Most distances tie (300 rows from 12 vectors, in groups of 2 to 99 copies):
# the heaps, the sort and the k = 1 minimum order equal distances by node id
# alone, and ef_search = 10 makes the result heap evict inside a group.
rng = np.random.default_rng(12)
distinct = rng.normal(size=(12, 24)).astype(np.float32)
weights = 0.7 ** np.arange(12)
tied = distinct[rng.choice(12, size=300, p=weights / weights.sum())]
ties = HNSWIndex(max_degree=6, ef_construction=150, ef_search=10, seed=12)
ties.build(tied)
digest.update(ties._layer_neighbors[0][:300].tobytes())
for k in (1, 5, 20):
    indices, distances = ties.query(np.concatenate([distinct, tied[::15]]), k)
    digest.update(indices.tobytes())
    digest.update(distances.tobytes())
print("VARIANT", native.kernel_variant())
print("DIGEST", digest.hexdigest())
"""


@pytest.mark.smoke
def test_smoke_kernel_compile_matrix():
    """One graph digest across the python fallback and both kernel variants.

    Each leg runs in a subprocess with its own ``REPRO_NATIVE`` /
    ``REPRO_NATIVE_VARIANT`` environment, builds + queries the same HNSW
    index, runs the tiny pipeline under the default (thread pool) config
    and under ``parallel=False``, runs the exact scan's mutual top-1 and top-2
    over two tables of duplicated rows, builds + queries a wide-degree HNSW
    index at d = 36 and d = 37 (in-place and gathered kernel paths), builds +
    queries a tie-heavy index (300 rows from 12 vectors, k = 1, 5, 20), and
    prints a digest over the full graph, the query output, the (equal) tuple
    set, both pair lists and the wide and tied indexes' graphs and answers. All
    legs must agree byte-for-byte — the kernel variants are alternative
    *implementations*, never alternative *results*. Legs the environment
    can't provide (no compiler, no AVX2 CPU) are skipped with the reason.
    """
    src_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base_env = {**os.environ}
    base_env["PYTHONPATH"] = src_root + os.pathsep + base_env.get("PYTHONPATH", "")
    base_env.pop("REPRO_NATIVE", None)
    base_env.pop("REPRO_NATIVE_VARIANT", None)

    legs = [("python-fallback", {"REPRO_NATIVE": "0"})]
    have_compiler = shutil.which(os.environ.get("CC", "gcc")) is not None
    native_disabled = os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "false")
    if have_compiler and not native_disabled:
        legs.append(("native-scalar", {"REPRO_NATIVE": "require", "REPRO_NATIVE_VARIANT": "scalar"}))
        from repro.ann.native import _cpu_supports_avx2

        if _cpu_supports_avx2():
            legs.append(("native-avx2", {"REPRO_NATIVE": "require", "REPRO_NATIVE_VARIANT": "avx2"}))
        else:
            print("\n  skipping native-avx2 leg: CPU lacks AVX2+FMA3")
    else:
        reason = "native kernel disabled via REPRO_NATIVE" if native_disabled else "no C compiler"
        pytest.skip(f"only the python-fallback leg is runnable here: {reason}")

    digests: dict[str, str] = {}
    for name, extra_env in legs:
        env = {**base_env, **extra_env}
        completed = subprocess.run(
            [sys.executable, "-c", _MATRIX_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, f"{name} leg failed:\n{completed.stderr[-2000:]}"
        digests[name] = completed.stdout.strip().splitlines()[-1]
        if name == "native-scalar":
            assert "VARIANT scalar" in completed.stdout
        if name == "native-avx2":
            assert "VARIANT avx2" in completed.stdout
        if name == "python-fallback":
            assert "VARIANT None" in completed.stdout
    reference = digests["python-fallback"]
    for name, digest in digests.items():
        assert digest == reference, f"{name} leg diverged from the python fallback"
