"""Persistent-pool executor: thread == serial equality, pool reuse, teardown.

The thread pool shares the parent's objects (tables, indexes). It must
produce bit-identical merge + prune output to the serial path — chunking is
performance-only.
"""

import numpy as np
import pytest

from repro.config import MergingConfig, ParallelConfig, PruningConfig
from repro.core.merging import ItemTable, hierarchical_merge_tables
from repro.core.parallel import ParallelExecutor, partition
from repro.core.pruning import prune_item_table
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data.entity import EntityRef
from repro.exceptions import ConfigurationError


SERIAL = ParallelExecutor(ParallelConfig(enabled=False))  # the default is the thread pool


def _tables(num_tables=5, rows=120, dim=16):
    tables = []
    for seed in range(num_tables):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(rows, dim)).astype(np.float32)
        if seed:  # overlap across tables so merges actually match pairs
            base = np.random.default_rng(0).normal(size=(rows, dim)).astype(np.float32)
            vectors[: rows // 2] = base[: rows // 2] + rng.normal(
                scale=0.01, size=(rows // 2, dim)
            ).astype(np.float32)
        tables.append(
            ItemTable(
                vectors,
                np.zeros(rows, dtype=np.int32),
                np.arange(rows, dtype=np.int64),
                np.arange(rows + 1, dtype=np.int64),
                (f"s{seed}",),
            )
        )
    return tables


def _store(tables):
    store = EmbeddingStore()
    for table in tables:
        name = table.sources[0]
        refs = [EntityRef(name, i) for i in range(len(table))]
        store.add_table(TableEmbeddings(table_name=name, refs=refs, vectors=table.vectors))
    return store


def _table_equal(a: ItemTable, b: ItemTable) -> bool:
    return (
        np.array_equal(a.vectors, b.vectors)
        and np.array_equal(a.member_sources, b.member_sources)
        and np.array_equal(a.member_indices, b.member_indices)
        and np.array_equal(a.member_offsets, b.member_offsets)
        and a.sources == b.sources
    )


@pytest.fixture(scope="module")
def serial_reference():
    tables = _tables()
    config = MergingConfig(index="brute-force", m=0.6)
    merged, stats = hierarchical_merge_tables([t for t in tables], config, executor=SERIAL)
    store = _store(tables)
    pruning = PruningConfig(epsilon=1.0, min_pts=2)
    pruned = prune_item_table(merged, store, pruning, executor=SERIAL)
    return tables, config, store, pruning, merged, stats, pruned


@pytest.mark.parametrize("enabled", [True, False], ids=["thread", "serial"])
def test_backend_merge_prune_equals_serial(serial_reference, enabled):
    """serial == thread (and serial == serial), bit for bit, merge and prune alike."""
    tables, config, store, pruning, merged_ref, stats_ref, pruned_ref = serial_reference
    with ParallelExecutor(ParallelConfig(enabled=enabled, max_workers=2)) as ex:
        assert ex.is_parallel is enabled
        merged, stats = hierarchical_merge_tables([t for t in tables], config, executor=ex)
        assert _table_equal(merged, merged_ref)
        assert stats.matched_pairs_per_level == stats_ref.matched_pairs_per_level
        pruned = prune_item_table(merged, store, pruning, executor=ex)
    assert len(pruned) == len(pruned_ref)
    for got, want in zip(pruned, pruned_ref):
        assert got.members == want.members
        assert got.vector.tobytes() == want.vector.tobytes()


@pytest.mark.parametrize("index", ["brute-force", "hnsw"])
def test_thread_merge_and_table_prune_equal_serial(index):
    """Flat-table pruning path, both index families: thread == serial bytes."""
    tables = _tables(rows=70, dim=12)
    store = _store(tables)
    merging = MergingConfig(index=index, m=0.5)
    pruning = PruningConfig(epsilon=1.0)
    merged_ref, _ = hierarchical_merge_tables([t for t in tables], merging, executor=SERIAL)
    pruned_ref = prune_item_table(merged_ref, store, pruning, executor=SERIAL)
    with ParallelExecutor(ParallelConfig(enabled=True, max_workers=2)) as ex:
        merged, _ = hierarchical_merge_tables([t for t in tables], merging, executor=ex)
        pruned = prune_item_table(merged, store, pruning, executor=ex)
    assert _table_equal(merged, merged_ref)
    assert merged.vectors.tobytes() == merged_ref.vectors.tobytes()
    assert [item.members for item in pruned] == [item.members for item in pruned_ref]
    assert all(
        got.vector.tobytes() == want.vector.tobytes() for got, want in zip(pruned, pruned_ref)
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["thread", "serial"])
def test_pool_persists_across_map_calls(enabled):
    """A thread executor makes one pool and keeps it; a serial one never makes any."""
    ex = ParallelExecutor(ParallelConfig(enabled=enabled, max_workers=2))
    try:
        assert ex.map(_double, [1, 2, 3]) == [2, 4, 6]
        pool_first = ex._pool
        assert (pool_first is not None) is enabled, "only a parallel map creates the pool"
        assert ex.map(_double, [4, 5, 6]) == [8, 10, 12]
        assert ex._pool is pool_first
    finally:
        ex.close()
    assert ex._pool is None
    # A closed executor lazily re-creates its pool instead of failing.
    assert ex.map(_double, [7, 8]) == [14, 16]
    assert (ex._pool is not None) is enabled
    ex.close()


def test_serial_and_single_item_paths_stay_inline():
    ex = ParallelExecutor(ParallelConfig(enabled=False))
    assert not ex.is_parallel
    assert ex.map(_double, [3]) == [6]
    parallel = ParallelExecutor(ParallelConfig(enabled=True))
    try:
        # Single-item maps never touch the pool.
        assert parallel.map(lambda x: x + 1, [41]) == [42]
        assert parallel._pool is None
    finally:
        parallel.close()


def test_pipeline_tuples_identical_across_backends():
    """End to end: MultiEM predictions match exactly for serial and thread."""
    from repro.config import paper_default_config
    from repro.core import MultiEM
    from repro.data.generators import load_benchmark

    dataset = load_benchmark("music-20", profile="tiny")
    config = paper_default_config("music-20", parallel=False).with_overrides(
        merging={"index": "hnsw"}
    )
    serial = MultiEM(config).match(dataset)
    assert serial.tuples and serial.method == "MultiEM"
    parallel_config = config.with_overrides(parallel={"enabled": True, "max_workers": 2})
    result = MultiEM(parallel_config).match(dataset)
    assert result.tuples == serial.tuples, "the thread pool changed predictions"
    assert result.method == "MultiEM (parallel)"


def test_incremental_matcher_close_is_idempotent():
    from repro.config import paper_default_config
    from repro.core import IncrementalMultiEM
    from repro.data.generators import load_benchmark

    dataset = load_benchmark("music-20", profile="tiny")
    with IncrementalMultiEM(
        paper_default_config("music-20").with_overrides(
            parallel={"enabled": True, "max_workers": 2}
        )
    ) as matcher:
        result = matcher.fit(dataset)
        assert result.tuples
        matcher.close()  # explicit close inside the context manager is fine
    matcher.close()  # and again after __exit__


def test_genuine_task_exception_propagates_unretried():
    """The first failing task's exception surfaces in input order; the pool survives it."""
    calls = []

    def boom(x):
        calls.append(x)
        if x in (3, 5):
            raise ValueError(f"task {x} is genuinely broken")
        return x

    with ParallelExecutor(ParallelConfig(enabled=True, max_workers=2)) as ex:
        with pytest.raises(ValueError, match="task 3 is genuinely broken"):
            ex.map(boom, list(range(6)))
        assert calls.count(3) == 1, "a failing task was retried"
        # The executor stays usable after the failure.
        assert ex.map(_square, [2, 3]) == [4, 9]


def test_partition_unchanged_contract():
    assert partition(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert partition([], 2) == []


def test_process_backend_is_refused_by_name():
    """``backend`` and the healing knobs are retired keys: refused by name, not reinterpreted."""
    from dataclasses import fields

    from repro.config import MultiEMConfig

    assert [f.name for f in fields(ParallelConfig)] == ["enabled", "max_workers"]
    for key, value in (
        ("backend", "process"),
        ("backend", "serial"),
        ("self_heal", True),
        ("task_timeout", 1.0),
        ("max_retries", 2),
        ("retry_backoff", 0.1),
    ):
        with pytest.raises(ConfigurationError, match=rf"parallel\.{key} was removed"):
            MultiEMConfig().with_overrides(parallel={key: value})
        with pytest.raises(TypeError):
            ParallelConfig(**{key: value})


@pytest.mark.parametrize("num_tables", [5, 20])
@pytest.mark.parametrize("index", ["brute-force", "hnsw"])
def test_level_schedule_digest_is_worker_count_invariant(num_tables, index):
    """enabled=False == 1, 2, 3 workers; 1 worker with many pairs must not deadlock."""
    import faulthandler
    import threading

    from repro.store.codecs import item_table_digest

    tables = _tables(num_tables=num_tables, rows=60, dim=12)
    config = MergingConfig(index=index, m=0.5)
    want, want_stats = hierarchical_merge_tables(list(tables), config, executor=SERIAL)
    for workers in (1, 2, 3):
        done = {}

        def run():
            with ParallelExecutor(ParallelConfig(enabled=True, max_workers=workers)) as ex:
                done["result"] = hierarchical_merge_tables(list(tables), config, executor=ex)

        # A task that submitted to the bounded pool would hang here (nested-map guard).
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)  # a guard against "never", not a speed assertion
        if thread.is_alive():
            faulthandler.dump_traceback(all_threads=True)
            pytest.fail(f"level loop wedged with {workers} worker(s); stacks are on stderr")
        merged, stats = done["result"]
        assert item_table_digest(merged) == item_table_digest(want)
        assert stats.matched_pairs_per_level == want_stats.matched_pairs_per_level


def test_workers_is_the_one_answer():
    import os

    assert SERIAL.workers == 1
    assert ParallelExecutor(ParallelConfig(enabled=False, max_workers=3)).workers == 1
    assert ParallelExecutor(ParallelConfig(max_workers=3)).workers == 3
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert ParallelExecutor().workers == usable
    with ParallelExecutor() as ex:
        ex.map(_double, [1, 2, 3])
        assert ex._pool._max_workers == ex.workers


def test_match_builds_no_cache_and_explicit_cache_still_counts(monkeypatch):
    """No production path consults an index cache; one handed to a hierarchy counts its misses."""
    from repro.ann import IndexCache
    from repro.config import paper_default_config
    from repro.core import IncrementalMultiEM, MultiEM
    from repro.data.generators import load_benchmark
    from repro.store import MatchSession

    calls = []
    original = IndexCache.plan

    def counting_plan(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(IndexCache, "plan", counting_plan)
    dataset = load_benchmark("music-20", profile="tiny")
    names = sorted(dataset.tables)
    # Graph merges: an exact top-1 merge builds no index, so it could not show a cache.
    config = paper_default_config("music-20").with_overrides(merging={"index": "hnsw"})
    assert MultiEM(config).match(dataset).tuples
    with IncrementalMultiEM(config) as matcher:
        matcher.fit(dataset.subset(names[:-1]))
        matcher.add_table(dataset.tables[names[-1]])
        assert MatchSession(matcher).query_many(["a title"], k=2)
    assert calls == [], "a production path consulted an index cache"

    tables = _tables(num_tables=5, rows=40, dim=8)
    cache = IndexCache(max_entries=16)
    _, stats = hierarchical_merge_tables(list(tables), MergingConfig(index="hnsw"), cache=cache)
    assert vars(cache.stats) == {
        "exact_hits": 0, "prefix_hits": 0, "misses": 2 * stats.pair_merges, "saved_rows": 0
    }
    assert len(calls) == 2 * stats.pair_merges


def test_self_made_executors_are_closed_and_a_callers_is_not(monkeypatch):
    """No pool thread outlives the call that made the pool; a passed executor stays open."""
    import threading

    import repro.core.merging as merging_module
    from repro.core.merging import merge_item_tables

    tables = _tables(num_tables=4, rows=40, dim=8)
    store, config = _store(tables), MergingConfig(index="hnsw", m=0.5)
    before = threading.active_count()
    merged, _ = hierarchical_merge_tables(list(tables), config)
    assert threading.active_count() == before
    assert prune_item_table(merged, store, PruningConfig(epsilon=1.0))
    merge_item_tables(tables[0], tables[1], config)
    assert threading.active_count() == before
    with monkeypatch.context() as patched:  # a failing call releases its pool too
        patched.setattr(merging_module, "mutual_pairs", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            hierarchical_merge_tables(list(tables), config)
    assert threading.active_count() == before
    with ParallelExecutor(ParallelConfig(max_workers=2)) as ex:
        hierarchical_merge_tables(list(tables), config, executor=ex)
        assert ex._pool is not None, "the caller's executor was closed by the callee"
        assert threading.active_count() == before + 2
    assert threading.active_count() == before


def test_constructing_and_loading_start_no_thread(music_tiny, tmp_path):
    """Pools are lazy: a process that forks after these calls forks single-threaded."""
    import threading

    from repro.config import paper_default_config
    from repro.core import IncrementalMultiEM, MultiEM
    from repro.store import MatchSession, compact_session, load_matcher

    config = paper_default_config("music-20")
    path = str(tmp_path / "fitted.snap")
    names = sorted(music_tiny.tables)
    with IncrementalMultiEM(config) as fitted:
        fitted.fit(music_tiny.subset(names[:-1], name=music_tiny.name))
        fitted.save(path, mode="full")
        fitted.add_table(music_tiny.tables[names[-1]])
        fitted.save(path + ".d1", mode="delta")  # saves hash on the pool; close joins it
    before = threading.active_count()
    MultiEM(config)
    matcher = IncrementalMultiEM(config)
    session = MatchSession.load(path, mmap=True)
    assert session.matcher.config.parallel.enabled
    assert threading.active_count() == before
    tip = load_matcher(path + ".d1", verify=True)  # chain links and digests re-hashed
    assert threading.active_count() == before
    compact_session(path + ".d1", str(tmp_path / "compact.snap"))  # saves on the restored pool
    assert threading.active_count() == before
    tip.close()
    session.close()
    matcher.close()


_EXIT_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro import IncrementalMultiEM, MultiEM, load_benchmark, paper_default_config

dataset = load_benchmark("music-20", "tiny", seed=0)
config = paper_default_config("music-20").with_overrides(merging={{"index": "hnsw"}})
assert config.parallel.enabled
print(len(MultiEM(config).match(dataset).tuples))
print(len(IncrementalMultiEM(config).fit(dataset).tuples))  # never closed: exit must not hang
"""


@pytest.mark.parametrize("native", ["0", "1"])
def test_process_exits_cleanly_without_close(native):
    """``python -c '...match(...)'`` with no ``close()``: exit 0, nothing on stderr."""
    import os
    import subprocess
    import sys

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    done = subprocess.run(
        [sys.executable, "-c", _EXIT_SNIPPET.format(src=src)],
        capture_output=True, text=True, timeout=300,  # a guard against "never"
        env={**os.environ, "REPRO_NATIVE": native},
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    first, second = map(int, done.stdout.split())
    assert first == second > 0


_ARENA_SNIPPET = """
import ctypes, os, sys, tempfile
sys.path.insert(0, {src!r})
from concurrent.futures import ThreadPoolExecutor
from repro.config import ParallelConfig
from repro.core.parallel import ParallelExecutor

libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)

def arenas():
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "malloc_info.xml")
        handle = libc.fopen(path.encode(), b"w")
        libc.malloc_info(0, handle)
        libc.fclose(handle)
        return open(path).read().count("<heap nr=")

def allocate(i):
    blocks = [bytearray(60_000) for _ in range(200)]  # malloc'd, under the mmap threshold
    return len(blocks)

if {capped}:
    with ParallelExecutor(ParallelConfig(enabled=True, max_workers=4)) as ex:
        assert ex.map(allocate, list(range(16))) == [200] * 16
else:  # the control: the same work on a bare pool, no arena cap
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(allocate, range(16))) == [200] * 16
print(arenas())
"""


def test_pool_threads_stay_on_the_main_malloc_arena():
    import ctypes
    import os
    import subprocess
    import sys

    if "MALLOC_ARENA_MAX" in os.environ:
        pytest.skip("MALLOC_ARENA_MAX is set: the allocator is already capped from outside")
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt, libc.malloc_info, libc.fopen  # noqa: B018 - attribute probe
    except (OSError, AttributeError):
        pytest.skip("libc has no mallopt / malloc_info (not glibc)")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

    def arenas_after(capped: bool) -> int:
        done = subprocess.run(
            [sys.executable, "-c", _ARENA_SNIPPET.format(src=src, capped=capped)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return int(done.stdout)

    if arenas_after(capped=False) <= 1:
        pytest.skip("this allocator keeps uncapped pool threads on one arena: nothing to show")
    assert arenas_after(capped=True) == 1, "worker threads opened their own malloc arenas"


def _double(x):
    return 2 * x


def _square(x):
    return x * x
