"""The merge task graph: no level barrier, worker-count invariance, index bound, failure.

Algorithm 2 runs as one dependency-driven schedule
(``repro.core.merging._MergeSchedule``): a task starts once its inputs exist,
not once its level's slowest task ends. These tests drive it only through
``hierarchical_merge_tables`` and the module names the schedule calls
(``plan_merge_index``, ``directed_pairs``, ``exact_top1_pairs``).
"""

import sys
import threading
import weakref

import numpy as np
import pytest

import repro.core.merging as merging_module
from repro.config import MergingConfig, ParallelConfig
from repro.core.merging import ItemTable, hierarchical_merge_tables
from repro.core.parallel import ParallelExecutor
from repro.store.codecs import item_table_digest

GRAPH = MergingConfig(index="hnsw", m=0.5)
SERIAL = ParallelConfig(enabled=False)


def _tables(sizes, dim=12):
    """One table per size, named ``s0``, ``s1``, ...; later tables overlap the first."""
    base = np.random.default_rng(0).normal(size=(max(sizes), dim)).astype(np.float32)
    tables = []
    for seed, rows in enumerate(sizes):
        rng = np.random.default_rng(seed + 1)
        vectors = rng.normal(size=(rows, dim)).astype(np.float32)
        vectors[: rows // 2] = base[: rows // 2] + rng.normal(scale=0.01, size=(rows // 2, dim))
        tables.append(
            ItemTable(
                vectors,
                np.zeros(rows, dtype=np.int32),
                np.arange(rows, dtype=np.int64),
                np.arange(rows + 1, dtype=np.int64),
                (f"s{seed}",) if rows else (),
            )
        )
    return tables


def _first_level(num_tables, seed):
    """Algorithm 2's first-level order: it pairs ``order[0]`` with ``order[1]``, and so on."""
    return np.random.default_rng(seed).permutation(num_tables)


def _wrap_builds(monkeypatch, before_build=None, after_build=None):
    """Wrap every merge index build the schedule plans."""
    original = merging_module.plan_merge_index

    def plan(vectors, config, cache=None):
        backend, build = original(vectors, config, cache)

        def wrapped():
            if before_build is not None:
                before_build(vectors)
            index = build()
            return index if after_build is None else after_build(vectors, index)

        return backend, wrapped

    monkeypatch.setattr(merging_module, "plan_merge_index", plan)


@pytest.mark.parametrize("waits_for", ["forward of another pair", "next-level build"])
def test_a_slow_build_holds_back_no_other_task(monkeypatch, waits_for):
    """One pair's ``a`` build blocks until work a level barrier would hold back has started."""
    num_tables = 4 if waits_for == "forward of another pair" else 3
    tables = _tables([60] * num_tables)
    with ParallelExecutor(SERIAL) as serial:
        want, want_stats = hierarchical_merge_tables(list(tables), GRAPH, executor=serial)
    order = _first_level(num_tables, GRAPH.seed)
    blocked, trigger = tables[order[0]].vectors, tables[order[2]].vectors
    released = threading.Event()

    def before_build(vectors):
        if vectors is trigger and waits_for == "next-level build":
            released.set()
        if vectors is blocked and not released.wait(timeout=15):
            raise TimeoutError("the a build waited behind a barrier")

    _wrap_builds(monkeypatch, before_build=before_build)
    directed = merging_module.directed_pairs

    def spied(index, queries, *args):
        if queries is trigger:
            released.set()
        return directed(index, queries, *args)

    monkeypatch.setattr(merging_module, "directed_pairs", spied)
    with ParallelExecutor(ParallelConfig(max_workers=2)) as executor:
        merged, stats = hierarchical_merge_tables(list(tables), GRAPH, executor=executor)
    assert released.is_set()
    assert item_table_digest(merged) == item_table_digest(want)
    assert stats == want_stats


@pytest.mark.parametrize(
    "sizes",
    [
        # The empty table sits out the plan, so the tables with rows count.
        [40, 0, 150, 30, 120, 45, 90, 70],  # 7 -> 4 -> 2 -> 1: a table carried at level 1
        [120, 150, 40, 0, 30, 50],  # 5 -> 3 -> 2 -> 1: a table carried at levels 1 and 2
    ],
    ids=["7-tables", "5-tables"],
)
def test_mixed_hierarchy_is_worker_count_invariant(monkeypatch, sizes):
    """Exact one-pass and graph pairs, an empty table, odd levels: the same bytes at any width."""
    tables = _tables(sizes)
    config = MergingConfig(index="auto", brute_force_limit=64, m=0.6)
    one_pass = []
    exact = merging_module.exact_top1_pairs
    monkeypatch.setattr(
        merging_module, "exact_top1_pairs", lambda *a, **kw: one_pass.append(1) or exact(*a, **kw)
    )
    graphs = []
    _wrap_builds(monkeypatch, before_build=lambda vectors: graphs.append(vectors.shape[0] > 64))
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches: more task completion orders
    try:
        for workers in (None, 1, 2, 5):
            parallel = SERIAL if workers is None else ParallelConfig(max_workers=workers)
            with ParallelExecutor(parallel) as executor:
                merged, stats = hierarchical_merge_tables(list(tables), config, executor=executor)
            results.append((item_table_digest(merged), stats))
    finally:
        sys.setswitchinterval(interval)
    assert all(result == results[0] for result in results[1:])
    assert results[0][1].levels == 3 and results[0][1].pair_merges == sum(map(bool, sizes)) - 1
    assert one_pass and any(graphs), "the hierarchy must mix one-pass and graph pairs"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_at_most_two_indexes_per_worker_are_alive(monkeypatch, workers):
    """Early builds included, no more than ``2 * workers`` indexes exist at once."""
    live = weakref.WeakSet()
    lock = threading.Lock()
    building = [0]
    peak = [0]

    class Counted:  # an index the test can see die
        def __init__(self, index):
            self.index = index

        def query(self, queries, k):
            return self.index.query(queries, k)

    def before_build(vectors):
        with lock:
            building[0] += 1

    def after_build(vectors, index):
        counted = Counted(index)
        with lock:
            building[0] -= 1
            live.add(counted)
            peak[0] = max(peak[0], len(live) + building[0])
        return counted

    _wrap_builds(monkeypatch, before_build=before_build, after_build=after_build)
    tables = _tables([50, 90, 70, 110, 60, 80, 100, 40, 75])
    with ParallelExecutor(ParallelConfig(max_workers=workers)) as executor:
        hierarchical_merge_tables(list(tables), GRAPH, executor=executor)
    assert 0 < peak[0] <= 2 * workers


class _Injected(Exception):
    pass


@pytest.mark.parametrize("workers", [None, 2])
def test_a_failing_task_propagates_and_the_executor_stays_usable(monkeypatch, workers):
    """The task's own exception reaches the caller; only tasks already in flight start after it."""
    tables = _tables([60, 70, 80, 90, 100])
    failing = tables[3].vectors
    directed = merging_module.directed_pairs
    failed_at, started = [], []

    def spied(index, queries, *args):
        started.append(bool(failed_at))
        if queries is failing:
            failed_at.append(1)
            raise _Injected("query failed")
        return directed(index, queries, *args)

    monkeypatch.setattr(merging_module, "directed_pairs", spied)
    _wrap_builds(monkeypatch, before_build=lambda vectors: started.append(bool(failed_at)))
    parallel = SERIAL if workers is None else ParallelConfig(max_workers=workers)
    with ParallelExecutor(parallel) as executor:
        with pytest.raises(_Injected, match="query failed"):
            hierarchical_merge_tables(list(tables), GRAPH, executor=executor)
        assert sum(started) <= executor.workers - 1, "tasks kept starting after the failure"
        assert executor.map(lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]
        monkeypatch.setattr(merging_module, "directed_pairs", directed)
        merged, stats = hierarchical_merge_tables(list(tables), GRAPH, executor=executor)
    assert stats.pair_merges == 4 and len(merged)
