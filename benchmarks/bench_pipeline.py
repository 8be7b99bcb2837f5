"""End-to-end per-module pipeline benchmark (Figure 5 shape), with a JSON trail.

``run_pipeline_bench`` times one full ``MultiEM.match`` (HNSW backend forced,
best of ``repeats``) and reports the S/R/M/P stage breakdown plus the
``merging + pruning`` aggregate this PR series optimizes.
``write_bench_record`` appends the record to ``BENCH_pipeline.json`` at the
repo root so the perf trajectory is tracked run over run.

Reference points on the bench box (music-200, ``bench`` profile, 11,070 rows,
best of 3): the PR-1 code ran 55.5 s end to end with 53.7 s in
merging + pruning; the flat-array merge/prune engines plus the native HNSW
kernel brought that to 8.2 s end to end with 6.5 s in merging + pruning
(~6.8x / ~8.2x). The PR-3 columnar text substrate then cut the front end
(attribute selection + representation) from 1.73 s to ~0.45 s (~3.7-4x,
tracked as ``selection_plus_representation``), landing at ~6.9 s end to end.
Predicted tuples stay byte-identical throughout (pinned by
``tests/core/test_pipeline_regression.py``).

Besides the per-module pipeline record, this file tracks the unified query
engine's workloads: the LSH-backed 10k mutual merge (native kernel vs the
``REPRO_NATIVE=0`` numpy path, digests asserted identical) and the
LSH / HNSW / brute-force backend timing matrix — all appended to
``BENCH_pipeline.json``.

Run at scale:    REPRO_BENCH_PROFILE=bench python -m pytest benchmarks/bench_pipeline.py -q -s
Smoke (tier-1):  python -m pytest benchmarks -q -m smoke
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.config import MergingConfig, paper_default_config
from repro.core import MultiEM
from repro.core.merging import ItemTable, hierarchical_merge_tables
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data.entity import EntityRef
from repro.data.generators import load_benchmark

BENCH_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_pipeline.json")
_SRC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_pipeline_bench(
    dataset_name: str = "music-200",
    profile: str = "bench",
    *,
    backend: str = "hnsw",
    repeats: int = 1,
) -> dict:
    """Time ``MultiEM.match`` end to end; returns the best trial's stage record."""
    dataset = load_benchmark(dataset_name, profile=profile)
    rows = sum(len(table) for table in dataset.table_list())
    config = paper_default_config(dataset_name).with_overrides(merging={"index": backend})
    best_total = None
    best_result = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        result = MultiEM(config).match(dataset)
        total = time.perf_counter() - started
        if best_total is None or total < best_total:
            best_total, best_result = total, result
    stages = best_result.timings.as_dict()
    return {
        "dataset": dataset_name,
        "profile": profile,
        "backend": backend,
        "rows": rows,
        "repeats": max(repeats, 1),
        "num_tuples": len(best_result.tuples),
        "stages": {name: round(value, 4) for name, value in stages.items()},
        "merging_plus_pruning": round(stages["merging"] + stages["pruning"], 4),
        "selection_plus_representation": round(
            stages["attribute_selection"] + stages["representation"], 4
        ),
        "wall_total": round(best_total, 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _pair_digest(pairs) -> str:
    """Order-independent digest of a mutual-pair set."""
    blob = ",".join(f"{p.left}:{p.right}" for p in sorted(pairs, key=lambda p: (p.left, p.right)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_LSH_MERGE_SNIPPET = """\
import json, sys, time
import numpy as np
sys.path.insert(0, {src!r})
from repro.ann import mutual_top_k
rng = np.random.default_rng(42)
left = rng.normal(size=({rows}, 64)).astype(np.float32)
right = left[rng.permutation({rows})] + rng.normal(scale=0.01, size=({rows}, 64)).astype(np.float32)
best = None
for _ in range({repeats}):
    t0 = time.perf_counter()
    pairs = mutual_top_k(left, right, k=1, max_distance=0.3, backend="lsh", index_kwargs={{"seed": 0}})
    el = time.perf_counter() - t0
    best = el if best is None or el < best else best
import hashlib
blob = ",".join(f"{{p.left}}:{{p.right}}" for p in sorted(pairs, key=lambda p: (p.left, p.right)))
print(json.dumps({{"seconds": best, "pairs": len(pairs), "digest": hashlib.sha256(blob.encode()).hexdigest()[:16]}}))
"""


#: Best of 3 for the identical 10k x 10k workload (seed 42) on the PR-3 code
#: — per-row Python re-rank plus numpy's hash-path ``np.unique`` dedup —
#: measured on the bench box when the unified engine landed. Kept as the
#: speedup denominator in the JSON trail; pair digest a6aa0e21d3e01592 is
#: unchanged across the refactor.
_LSH_MERGE_10K_PRE_ENGINE_SECONDS = 5.375


def run_lsh_merge_bench(rows: int = 10_000, repeats: int = 3) -> dict:
    """LSH-backed mutual merge over two ``rows``-row twin clouds, best of N.

    Times the in-process path (native kernel when available) and a
    ``REPRO_NATIVE=0`` subprocess leg (the pure-numpy engine fallback), and
    asserts their mutual-pair digests are identical — the byte-identity
    contract of the shared query engine.
    """
    from repro.ann import mutual_top_k
    from repro.ann import native as native_mod

    rng = np.random.default_rng(42)
    left = rng.normal(size=(rows, 64)).astype(np.float32)
    right = left[rng.permutation(rows)] + rng.normal(scale=0.01, size=(rows, 64)).astype(np.float32)
    best = None
    pairs = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        pairs = mutual_top_k(left, right, k=1, max_distance=0.3, backend="lsh", index_kwargs={"seed": 0})
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    snippet = _LSH_MERGE_SNIPPET.format(src=_SRC_PATH, rows=rows, repeats=max(repeats, 1))
    env = {**os.environ, "REPRO_NATIVE": "0"}
    completed = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
    )
    fallback = json.loads(completed.stdout.strip().splitlines()[-1])
    digest = _pair_digest(pairs)
    assert fallback["digest"] == digest, "REPRO_NATIVE=0 pair set diverged from the native path"
    assert fallback["pairs"] == len(pairs)
    record = {
        "dataset": f"lsh-merge-{rows}x2",
        "profile": "tiny" if rows < 10_000 else "bench",
        "backend": "lsh",
        "kind": "lsh_mutual_merge",
        "rows": 2 * rows,
        "repeats": max(repeats, 1),
        "mutual_pairs": len(pairs),
        "pair_digest": digest,
        "native_enabled": native_mod.get_kernel() is not None,
        "seconds": round(best, 4),
        "seconds_python_fallback": round(fallback["seconds"], 4),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if rows == 10_000:
        record["seconds_pre_engine_reference"] = _LSH_MERGE_10K_PRE_ENGINE_SECONDS
        record["speedup_vs_pre_engine"] = round(_LSH_MERGE_10K_PRE_ENGINE_SECONDS / best, 2)
    return record


def _pool_bench_tables(num_tables: int, rows: int) -> tuple[list, EmbeddingStore]:
    base = np.random.default_rng(0).normal(size=(rows, 64)).astype(np.float32)
    tables = []
    store = EmbeddingStore()
    for seed in range(num_tables):
        rng = np.random.default_rng(seed + 1)
        vectors = (base + rng.normal(scale=0.008, size=(rows, 64))).astype(np.float32)
        name = f"s{seed}"
        tables.append(
            ItemTable(
                vectors,
                np.zeros(rows, dtype=np.int32),
                np.arange(rows, dtype=np.int64),
                np.arange(rows + 1, dtype=np.int64),
                (name,),
            )
        )
        store.add_table(
            TableEmbeddings(name, [EntityRef(name, i) for i in range(rows)], vectors)
        )
    return tables, store


def _encode_dataset_vectors(dataset_name: str, profile: str) -> np.ndarray:
    """All-table embedding matrix for a benchmark dataset (row-concatenated)."""
    from repro.core.representation import EntityRepresenter

    dataset = load_benchmark(dataset_name, profile=profile)
    config = paper_default_config(dataset_name)
    representer = EntityRepresenter(config.representation)
    representer.fit(dataset, dataset.schema)
    embeddings = representer.encode_dataset(dataset, dataset.schema)
    return np.ascontiguousarray(
        np.concatenate([embeddings[table.name].vectors for table in dataset.table_list()])
    )


_RERANK_SNIPPET = """\
import hashlib, json, sys, time
import numpy as np
sys.path.insert(0, {src!r})
from repro.ann import engine, native
from repro.ann.distances import PreparedVectors

vectors = np.load({vectors_path!r})
rng = np.random.default_rng(42)
num_queries = min(1500, vectors.shape[0])
queries = vectors[:num_queries] + rng.normal(
    scale=0.01, size=(num_queries, vectors.shape[1])
).astype(np.float32)
prepared = PreparedVectors(vectors, "cosine")
prepared_queries = prepared.prepare_queries(queries)
seg = min({segment}, vectors.shape[0])
picks = np.argsort(rng.random((num_queries, vectors.shape[0])), axis=1)[:, :seg]
candidates = np.ascontiguousarray(np.sort(picks, axis=1).astype(np.int64).reshape(-1))
offsets = np.arange(num_queries + 1, dtype=np.int64) * seg
best = None
for _ in range({repeats}):
    indices, distances = engine.alloc_topk(num_queries, 5)
    t0 = time.perf_counter()
    engine.rerank_csr(prepared, prepared_queries, candidates, offsets, 5,
                      indices, distances, use_native={use_native})
    el = time.perf_counter() - t0
    best = el if best is None or el < best else best
digest = hashlib.sha256(indices.tobytes() + distances.tobytes()).hexdigest()[:16]
print(json.dumps({{"seconds": best, "variant": native.kernel_variant(), "digest": digest}}))
"""


def run_kernel_rerank_bench(
    dataset_name: str = "music-200", profile: str = "tiny", repeats: int = 3, segment: int = 64
) -> dict:
    """Short-segment re-rank per kernel variant.

    Times the same CSR re-rank workload (real ``dataset_name`` embeddings,
    ``segment``-row candidate lists — the shape the SIMD micro-kernels serve)
    in three subprocess legs: the ``REPRO_NATIVE=0`` numpy engine, the scalar
    C variant, and the AVX2 variant where the CPU supports it. Output digests
    are asserted identical across all legs — the variants are alternative
    implementations, never alternative results.
    """
    import tempfile

    from repro.ann import native as native_mod
    from repro.ann.native import _cpu_supports_avx2

    vectors = _encode_dataset_vectors(dataset_name, profile)
    with tempfile.TemporaryDirectory() as tmp:
        vectors_path = os.path.join(tmp, "vectors.npy")
        np.save(vectors_path, vectors)

        def run_leg(use_native: str, extra_env: dict) -> dict:
            snippet = _RERANK_SNIPPET.format(
                src=_SRC_PATH,
                vectors_path=vectors_path,
                segment=segment,
                repeats=max(repeats, 1),
                use_native=use_native,
            )
            env = {**os.environ}
            env.pop("REPRO_NATIVE_VARIANT", None)
            env.update(extra_env)
            completed = subprocess.run(
                [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
            )
            return json.loads(completed.stdout.strip().splitlines()[-1])

        python_leg = run_leg("False", {"REPRO_NATIVE": "0"})
        scalar_leg = run_leg("True", {"REPRO_NATIVE_VARIANT": "scalar"})
        assert scalar_leg["variant"] == "scalar", "scalar variant did not load"
        assert scalar_leg["digest"] == python_leg["digest"], "scalar re-rank diverged"
        avx2_leg = None
        if _cpu_supports_avx2():
            avx2_leg = run_leg("True", {"REPRO_NATIVE_VARIANT": "avx2"})
            if avx2_leg["variant"] != "avx2":
                avx2_leg = None  # honest fallback engaged (non-bit-equal AVX2 rejected)
            else:
                assert avx2_leg["digest"] == python_leg["digest"], "AVX2 re-rank diverged"

    return {
        "dataset": dataset_name,
        "profile": profile,
        "backend": "kernel",
        "kind": "kernel_rerank",
        "rows": int(vectors.shape[0]),
        "dim": int(vectors.shape[1]),
        "segment": segment,
        "repeats": max(repeats, 1),
        "native_enabled": native_mod.get_kernel() is not None,
        "default_variant": native_mod.kernel_variant(),
        "seconds_rerank_python": round(python_leg["seconds"], 4),
        "seconds_rerank_scalar": round(scalar_leg["seconds"], 4),
        "seconds_rerank_avx2": None if avx2_leg is None else round(avx2_leg["seconds"], 4),
        "rerank_digest": python_leg["digest"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_snapshot_delta_bench(
    dataset_name: str = "music-200",
    profile: str = "bench",
    *,
    appends: int = 2,
    repeats: int = 3,
) -> dict:
    """Delta-save vs full-save cost under rolling ``add_table`` ingest.

    Fits the incremental matcher on all but the last ``appends`` tables,
    writes the base snapshot, then folds the held-out tables in one at a
    time. At every step both save modes run against the *same* live state
    (best of N each): ``save_session_delta`` writes only the changed bytes
    as an append-only chain link, ``save_session`` rewrites everything. The
    matcher's recorded lineage is restored between trials so each delta is
    measured against the same parent.
    """
    import tempfile

    from repro.core.incremental import IncrementalMultiEM
    from repro.store import save_session
    from repro.store.session import save_session_delta

    dataset = load_benchmark(dataset_name, profile=profile)
    rows = sum(len(table) for table in dataset.table_list())
    names = sorted(dataset.tables)
    held_out = names[-appends:]
    matcher = IncrementalMultiEM(paper_default_config(dataset_name))
    matcher.fit(dataset.subset(names[:-appends], name=dataset.name))
    steps = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "s.snap")
            save_session(matcher, base_path)
            base_bytes = os.path.getsize(base_path)
            for depth, name in enumerate(held_out, start=1):
                matcher.add_table(dataset.tables[name])
                parent = dict(matcher._base)  # lineage to diff every trial against
                delta_path = os.path.join(tmp, f"s.snap.d{depth}")
                full_path = os.path.join(tmp, f"full{depth}.snap")
                delta_best = full_best = None
                for _ in range(max(repeats, 1)):
                    started = time.perf_counter()
                    save_session_delta(matcher, delta_path)
                    elapsed = time.perf_counter() - started
                    delta_best = elapsed if delta_best is None or elapsed < delta_best else delta_best
                    matcher._base = dict(parent)
                    started = time.perf_counter()
                    save_session(matcher, full_path)
                    elapsed = time.perf_counter() - started
                    full_best = elapsed if full_best is None or elapsed < full_best else full_best
                    matcher._base = dict(parent)
                delta_bytes = os.path.getsize(delta_path)
                full_bytes = os.path.getsize(full_path)
                steps.append(
                    {
                        "depth": depth,
                        "table": name,
                        "delta_bytes": delta_bytes,
                        "full_bytes": full_bytes,
                        "delta_over_full": round(delta_bytes / full_bytes, 3),
                        "seconds_delta_save": round(delta_best, 4),
                        "seconds_full_save": round(full_best, 4),
                    }
                )
                # Advance the lineage onto this delta for the next append.
                save_session_delta(matcher, delta_path)
    finally:
        matcher.close()
    tip = steps[-1]
    return {
        "dataset": dataset_name,
        "profile": profile,
        "backend": "snapshot",
        "kind": "snapshot_delta_save",
        "rows": rows,
        "repeats": max(repeats, 1),
        "appended_tables": appends,
        "base_bytes": base_bytes,
        "steps": steps,
        "chain_bytes": base_bytes + sum(step["delta_bytes"] for step in steps),
        "delta_over_full_first_append": steps[0]["delta_over_full"],
        "delta_over_full_tip": tip["delta_over_full"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def run_sharded_merge_bench(num_tables: int = 5, rows: int = 1200, repeats: int = 3) -> dict:
    """Sharded hierarchical merge at shards ∈ {1, 2, 4} vs the serial merge.

    Every sharded run is asserted byte-identical to the serial merge (the
    plane's whole contract), so what this record tracks is the *cost* of the
    decomposition: plan construction plus per-owner-group query fan-out and
    the boundary stitch. On a single-core box the sharded numbers are pure
    overhead — the decomposition buys a work-splitting boundary for
    multi-machine merges, not local speedup (see ``shards_caveat``).
    """
    from repro.shard import plan_from_item_tables, sharded_hierarchical_merge
    from repro.store.codecs import item_table_digest

    tables, _ = _pool_bench_tables(num_tables, rows)
    serial_config = MergingConfig(index="hnsw", m=0.5)

    def best_of(function):
        best = None
        result = None
        for _ in range(max(repeats, 1)):
            started = time.perf_counter()
            result = function()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None or elapsed < best else best
        return best, result

    # One untimed pass first: kernel load + per-process calibration otherwise
    # land entirely on the serial leg and flatter the sharded numbers.
    hierarchical_merge_tables([table for table in tables], serial_config)
    serial_seconds, (serial_table, _) = best_of(
        lambda: hierarchical_merge_tables([table for table in tables], serial_config)
    )
    serial_digest = item_table_digest(serial_table)
    shard_legs = []
    for shards in (1, 2, 4):
        config = MergingConfig(index="hnsw", m=0.5, shards=max(shards, 2), shard_key="lsh")
        plan = plan_from_item_tables([table for table in tables], config)
        if shards == 1:
            # Everything in one core group: the stitch machinery runs with
            # nothing to stitch — its fixed cost, isolated.
            owners = [np.zeros(len(table), dtype=np.int32) for table in tables]
        else:
            owners = plan.owners
        seconds, (merged, _, _) = best_of(
            lambda o=owners, c=config: sharded_hierarchical_merge(
                [table for table in tables], o, c
            )
        )
        assert item_table_digest(merged) == serial_digest, "sharded merge diverged"
        spill = int(sum(int((table_owners == config.shards).sum()) for table_owners in owners))
        shard_legs.append(
            {
                "shards": shards,
                "seconds": round(seconds, 4),
                "overhead_vs_serial": round(seconds / max(serial_seconds, 1e-9), 2),
                "spill_rows": spill,
            }
        )
    return {
        "dataset": f"sharded-merge-{num_tables}x{rows}",
        "profile": "tiny" if rows < 1000 else "bench",
        "backend": "hnsw",
        "kind": "sharded_merge",
        "rows": num_tables * rows,
        "repeats": max(repeats, 1),
        "shard_key": "lsh",
        "seconds_serial": round(serial_seconds, 4),
        "shard_legs": shard_legs,
        "item_table_digest": serial_digest[:16],
        "shards_caveat": (
            "single-core bench box: sharded legs measure decomposition overhead "
            "(plan + per-group fan-out + boundary stitch), not speedup; all legs "
            "asserted byte-identical to the serial merge"
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def write_bench_record(record: dict, path: str = BENCH_JSON_PATH) -> None:
    """Append one record to the JSON trail (created on first write).

    Tiny-profile (smoke) records replace the previous record for the same
    workload instead of appending, so the trail tracks real bench runs and
    is not flooded by one smoke record per tier-1 invocation.

    The write is atomic (full serialization into a sibling temp file, then
    ``os.replace``): a bench run interrupted mid-write can no longer leave a
    truncated file behind and silently wipe the recorded perf trajectory —
    the previous trail survives untouched.
    """
    trail = {"description": "MultiEM per-module pipeline timings (Figure 5 shape)", "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if isinstance(existing, dict) and isinstance(existing.get("runs"), list):
                trail = existing
        except (OSError, ValueError):
            pass
    if record.get("profile") == "tiny":
        key = (record.get("dataset"), record.get("profile"), record.get("backend"))
        trail["runs"] = [
            run
            for run in trail["runs"]
            if (run.get("dataset"), run.get("profile"), run.get("backend")) != key
        ]
    trail["runs"].append(record)
    from repro.store.format import atomic_output

    with atomic_output(path, "w") as handle:
        json.dump(trail, handle, indent=2)
        handle.write("\n")


def _format_record(record: dict) -> str:
    stages = record["stages"]
    front_end = record.get(
        "selection_plus_representation",
        round(stages["attribute_selection"] + stages["representation"], 4),
    )
    return (
        f"{record['dataset']} ({record['profile']}, {record['rows']} rows, "
        f"backend={record['backend']}): "
        f"S={stages['attribute_selection']:.2f}s R={stages['representation']:.2f}s "
        f"M={stages['merging']:.2f}s P={stages['pruning']:.2f}s "
        f"S+R={front_end:.2f}s M+P={record['merging_plus_pruning']:.2f}s "
        f"total={record['wall_total']:.2f}s "
        f"({record['num_tuples']} tuples)"
    )


def test_bench_pipeline_module_times(bench_profile):
    """Regenerate the end-to-end module-time breakdown and extend the JSON trail."""
    repeats = 3 if bench_profile != "tiny" else 1
    record = run_pipeline_bench("music-200", bench_profile, repeats=repeats)
    write_bench_record(record)
    print("\n  " + _format_record(record))
    assert record["num_tuples"] > 0
    assert all(value >= 0 for value in record["stages"].values())


def test_bench_backend_matrix(bench_profile):
    """LSH vs HNSW vs brute-force pipeline timings (the design ablation)."""
    repeats = 3 if bench_profile != "tiny" else 1
    for backend in ("brute-force", "hnsw", "lsh"):
        record = run_pipeline_bench("music-200", bench_profile, backend=backend, repeats=repeats)
        write_bench_record(record)
        print("\n  " + _format_record(record))
        assert record["num_tuples"] > 0


def test_bench_lsh_mutual_merge(bench_profile):
    """LSH-backed mutual merge at scale; native and numpy digests must agree."""
    rows = 2000 if bench_profile == "tiny" else 10_000
    record = run_lsh_merge_bench(rows=rows, repeats=3 if bench_profile != "tiny" else 1)
    write_bench_record(record)
    print(
        f"\n  lsh merge 2x{rows}: {record['seconds']:.2f}s native-mode, "
        f"{record['seconds_python_fallback']:.2f}s REPRO_NATIVE=0, "
        f"{record['mutual_pairs']} pairs (digest {record['pair_digest']})"
    )
    assert record["mutual_pairs"] > 0


def test_bench_snapshot_delta(bench_profile):
    """Delta-save bytes/time vs a full rewrite under rolling ingest."""
    record = run_snapshot_delta_bench(
        "music-200", bench_profile, repeats=3 if bench_profile != "tiny" else 1
    )
    write_bench_record(record)
    for step in record["steps"]:
        print(
            f"\n  append {step['depth']} ({step['table']}): delta "
            f"{step['delta_bytes']} bytes / {step['seconds_delta_save']:.3f}s vs full "
            f"{step['full_bytes']} bytes / {step['seconds_full_save']:.3f}s "
            f"({step['delta_over_full']:.1%} of the rewrite)"
        )
    first = record["steps"][0]
    assert first["delta_bytes"] < first["full_bytes"]
    if bench_profile != "tiny":
        # The acceptance bar: one appended table must cost well under a
        # quarter of rewriting the whole state.
        assert first["delta_over_full"] < 0.25, (
            f"delta save wrote {first['delta_over_full']:.1%} of a full rewrite"
        )


def test_bench_kernel_rerank(bench_profile):
    """Per-variant short-segment re-rank timings."""
    import shutil

    if shutil.which(os.environ.get("CC", "gcc")) is None:
        import pytest

        pytest.skip("kernel variant matrix needs a C compiler")
    record = run_kernel_rerank_bench("music-200", bench_profile, repeats=3)
    write_bench_record(record)
    avx2 = record["seconds_rerank_avx2"]
    avx2_part = f", avx2 {avx2*1e3:.1f}ms" if avx2 is not None else " (no AVX2)"
    print(
        f"\n  rerank over {record['rows']}x{record['dim']} (seg {record['segment']}): "
        f"python {record['seconds_rerank_python']*1e3:.1f}ms, "
        f"scalar {record['seconds_rerank_scalar']*1e3:.1f}ms{avx2_part}"
    )
    assert record["seconds_rerank_scalar"] > 0


def test_bench_sharded_merge(bench_profile):
    """Sharded vs serial hierarchical merge (byte-identical; overhead tracked)."""
    rows = 300 if bench_profile == "tiny" else 1200
    tables = 5 if bench_profile == "tiny" else 8
    record = run_sharded_merge_bench(
        num_tables=tables, rows=rows, repeats=3 if bench_profile != "tiny" else 1
    )
    write_bench_record(record)
    legs = ", ".join(
        f"{leg['shards']}sh {leg['seconds']:.2f}s ({leg['overhead_vs_serial']:.2f}x, "
        f"{leg['spill_rows']} spill)"
        for leg in record["shard_legs"]
    )
    print(
        f"\n  sharded merge over {tables}x{rows} rows: serial "
        f"{record['seconds_serial']:.2f}s vs {legs}"
    )
    assert all(leg["seconds"] > 0 for leg in record["shard_legs"])
