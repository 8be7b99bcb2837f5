"""Table-wise hierarchical merging (Algorithms 2 and 3) on flat array storage.

The merging stage treats every table as a collection of merge items
(initially one item per record). Two tables are merged by

1. finding mutual top-K neighbour pairs under a distance cap ``m`` with an
   ANN index (Eq. 1, Algorithm 3 lines 3-5),
2. unioning the paired items by transitivity (lines 6-8), and
3. carrying every unmatched item forward unchanged (lines 9-10).

Algorithm 2 then repeats the two-table merge hierarchically — random pairs of
tables, level by level — until a single integrated table remains. The merged
item's representative vector is the member-count-weighted mean of its parts
(a medoid representative is available for the design ablation).

Flat-table layout and byte-identity contract
--------------------------------------------

Internally a table of items is an :class:`ItemTable` *column store*: one
``(n, d)`` float32 vector matrix plus CSR-style member lists (``int32``
source ids into a sorted source-name tuple, ``int64`` row indices, and an
``(n + 1,)`` offset array). A two-table merge then runs as

* an integer union-find over ``np.arange(n_left + n_right)`` seeded by the
  mutual pairs,
* a single stable relabeling pass that orders output groups by the first
  occurrence of any of their members (the same order the historical
  dict-of-tuples implementation produced), and
* grouped weighted-mean representatives computed in one vectorized pass per
  distinct group size (gather → ``(t, s, d)`` → weighted sum over axis 1).

Every step is required to reproduce the historical per-item implementation
**bit for bit**: group composition, output order, member tuples and the raw
bytes of every representative vector. The per-group-size batching exists
because numpy's pairwise summation makes ``np.add.reduceat`` (sequential)
diverge from ``ndarray.sum(axis=0)`` for three or more rows, while a
``(t, s, d).sum(axis=1)`` is bit-equal to each slice's ``(s, d).sum(axis=0)``
on this platform (pinned by ``tests/core/test_flat_equivalence.py``).

Schedule
--------

The whole hierarchy is drawn before any merge runs (:func:`_merge_plan`) and
runs as one dependency-driven task graph (:class:`_MergeSchedule`): index
builds, forward and trimmed backward query chunks, and the finishing union,
each started on the executor as soon as its inputs exist. No level waits for
the slowest task of the one before it, and a graph-sized table's index may be
built while earlier levels still run. Every task is the call the serial merge
makes, so output bytes do not depend on the worker count or the task order.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..ann.mutual import (
    backward_rows,
    batch_invariant,
    directed_pairs,
    exact_top1_pairs,
    mutual_pairs,
    one_pass_pair,
    plan_side_index,
    resolve_backend,
    row_chunks,
)
from ..arrays import csr_positions
from ..config import MergingConfig
from ..data.entity import EntityRef
from ..embedding.base import normalize_rows
from ..embedding.pooling import medoid_pool
from .parallel import ParallelExecutor, default_executor
from .representation import TableEmbeddings


@dataclass
class MergeItem:
    """A (possibly merged) item: a group of entity refs plus a representative vector."""

    members: tuple[EntityRef, ...]
    vector: np.ndarray

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class MergeStats:
    """Diagnostics collected across the hierarchy (useful for tests and docs)."""

    levels: int = 0
    pair_merges: int = 0
    matched_pairs_per_level: list[int] = field(default_factory=list)


def weighted_mean_vector(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Member-count-weighted, L2-normalized mean of representative vectors.

    This is *the* representative form of the merging stage; the pruning stage
    reuses it (with unit weights, one per surviving entity) so that pruned
    items stay consistent with the representatives later merges consume.
    """
    weights = np.asarray(weights, dtype=np.float32)
    pooled = (weights[:, None] * vectors).sum(axis=0) / float(weights.sum())
    return normalize_rows(pooled[None, :])[0]


class ItemTable:
    """Column-store view of a merge-item table.

    Attributes:
        vectors: ``(n, d)`` float32 representative matrix, row ``i`` for item ``i``.
        member_sources: ``(M,)`` int32 ids into :attr:`sources` for every member.
        member_indices: ``(M,)`` int64 source-row indices for every member.
        member_offsets: ``(n + 1,)`` int64 CSR offsets; item ``i`` owns members
            ``member_offsets[i]:member_offsets[i + 1]``.
        sources: source names, **sorted ascending** — the invariant that makes
            sorting members by ``(source_id, index)`` equal to sorting
            :class:`EntityRef` objects by ``(source, index)``.
    """

    __slots__ = ("vectors", "member_sources", "member_indices", "member_offsets", "sources")

    def __init__(
        self,
        vectors: np.ndarray,
        member_sources: np.ndarray,
        member_indices: np.ndarray,
        member_offsets: np.ndarray,
        sources: tuple[str, ...],
    ) -> None:
        self.vectors = vectors
        self.member_sources = member_sources
        self.member_indices = member_indices
        self.member_offsets = member_offsets
        self.sources = sources

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """Member count per item (the merge weights), as int64."""
        return np.diff(self.member_offsets)

    # --------------------------------------------------------- constructors
    @classmethod
    def empty(cls, dimension: int = 0) -> "ItemTable":
        return cls(
            np.zeros((0, dimension), dtype=np.float32),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            (),
        )

    @classmethod
    def from_items(cls, items: Sequence[MergeItem]) -> "ItemTable":
        """Pack a list of merge items into flat columns (vectors are stacked).

        Item vectors must be float32 — the encoder contract every pipeline
        producer honors; other dtypes are cast here (the flat layout stores
        one homogeneous matrix, so the historical accident of per-item mixed
        dtypes surviving a merge is not supported).
        """
        n = len(items)
        if n == 0:
            return cls.empty()
        vectors = np.stack([item.vector for item in items]).astype(np.float32, copy=False)
        sources = sorted({ref.source for item in items for ref in item.members})
        source_id = {name: i for i, name in enumerate(sources)}
        counts = np.fromiter((len(item.members) for item in items), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        member_sources = np.fromiter(
            (source_id[ref.source] for item in items for ref in item.members),
            dtype=np.int32,
            count=total,
        )
        member_indices = np.fromiter(
            (ref.index for item in items for ref in item.members), dtype=np.int64, count=total
        )
        return cls(vectors, member_sources, member_indices, offsets, tuple(sources))

    @classmethod
    def from_embeddings(cls, embeddings: TableEmbeddings) -> "ItemTable":
        """Singleton item per record, sharing the embedding matrix (no copy)."""
        n = len(embeddings.refs)
        if n == 0:
            return cls.empty()
        vectors = np.ascontiguousarray(np.asarray(embeddings.vectors, dtype=np.float32))
        sources = sorted({ref.source for ref in embeddings.refs})
        source_id = {name: i for i, name in enumerate(sources)}
        member_sources = np.fromiter(
            (source_id[ref.source] for ref in embeddings.refs), dtype=np.int32, count=n
        )
        member_indices = np.fromiter(
            (ref.index for ref in embeddings.refs), dtype=np.int64, count=n
        )
        return cls(vectors, member_sources, member_indices, np.arange(n + 1, dtype=np.int64), tuple(sources))

    # --------------------------------------------------------------- views
    def member_refs(self) -> list[EntityRef]:
        """All member refs in storage order (flat, CSR-aligned)."""
        sources = self.sources
        return [
            EntityRef(sources[sid], int(idx))
            for sid, idx in zip(self.member_sources.tolist(), self.member_indices.tolist())
        ]

    def to_items(self) -> list[MergeItem]:
        """Materialize the thin :class:`MergeItem` list view (vectors are row views)."""
        refs = self.member_refs()
        offsets = self.member_offsets.tolist()
        return [
            MergeItem(members=tuple(refs[offsets[i] : offsets[i + 1]]), vector=self.vectors[i])
            for i in range(len(self))
        ]

    def filter(self, mask: np.ndarray) -> "ItemTable":
        """Row-subset of the table (items where ``mask`` is True, order kept)."""
        mask = np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(mask)
        counts = self.sizes[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pos = csr_positions(self.member_offsets[rows], counts)
        return ItemTable(
            self.vectors[rows],
            self.member_sources[pos],
            self.member_indices[pos],
            offsets,
            self.sources,
        )


def _union_sources(left: ItemTable, right: ItemTable) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Merged sorted source table plus per-side id remap arrays."""
    union = sorted(set(left.sources) | set(right.sources))
    index = {name: i for i, name in enumerate(union)}
    left_map = np.fromiter((index[s] for s in left.sources), dtype=np.int32, count=len(left.sources))
    right_map = np.fromiter((index[s] for s in right.sources), dtype=np.int32, count=len(right.sources))
    return tuple(union), left_map, right_map


def bucketed_weighted_mean(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalized weighted means of one same-size bucket — the bit-critical op.

    ``stacked`` is ``(t, s, d)`` (``t`` groups of ``s`` rows), ``weights`` is
    ``(t, s)`` float32. Each output row is bit-identical to
    :func:`weighted_mean_vector` on that group's ``(s, d)`` slice: an axis-1
    reduction of a 3-d gather equals each slice's axis-0 reduction on this
    platform, while e.g. ``np.add.reduceat`` (sequential) does **not** for
    three or more rows (see the module docstring's byte-identity notes). Both
    the merging and the pruning engines funnel through this single helper so
    the equality is maintained — and pinned by the property tests — in one
    place. ``stacked`` must be a fresh gather: it is scaled in place (the same
    products as a scaled copy, without the second ``(t, s, d)`` buffer).
    """
    stacked *= weights[:, :, None]
    pooled = stacked.sum(axis=1)
    pooled /= weights.sum(axis=1)[:, None]
    return normalize_rows(pooled)


def _node_rows(left: np.ndarray, right: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``np.concatenate([left, right])[nodes]``, without the concatenated copy."""
    rows = np.empty((nodes.shape[0], left.shape[1]), dtype=np.result_type(left, right))
    on_left = nodes < left.shape[0]
    rows[on_left] = left[nodes[on_left]]
    rows[~on_left] = right[nodes[~on_left] - left.shape[0]]
    return rows


def _grouped_mean_vectors(
    out_vectors: np.ndarray,
    rows: "Callable[[np.ndarray], np.ndarray]",
    weights: np.ndarray,
    group_of_node: np.ndarray,
    nodes_in_group_order: np.ndarray,
    group_node_counts: np.ndarray,
) -> None:
    """Weighted-mean representatives for every multi-node group, vectorized.

    ``rows(nodes)`` gathers node vectors. Buckets groups by node count; each
    bucket reduces through :func:`bucketed_weighted_mean`, bit-identical to
    the per-group ``(weights[:, None] * stacked).sum(axis=0)`` the historical
    implementation computed.
    """
    groups_sorted = group_of_node[nodes_in_group_order]
    node_sizes = group_node_counts[groups_sorted]
    for s in np.unique(node_sizes):
        in_bucket = node_sizes == s
        nodes_s = nodes_in_group_order[in_bucket]
        t = nodes_s.shape[0] // int(s)
        stacked = rows(nodes_s).reshape(t, int(s), out_vectors.shape[1])
        bucket_weights = weights[nodes_s].reshape(t, int(s))
        out_vectors[groups_sorted[in_bucket][:: int(s)]] = bucketed_weighted_mean(
            stacked, bucket_weights
        )


def merge_index_kwargs(config: MergingConfig) -> dict:
    """The per-merge ANN index kwargs a :class:`MergingConfig` implies."""
    return {
        "hnsw_max_degree": config.hnsw_max_degree,
        "hnsw_ef_construction": config.hnsw_ef_construction,
        "hnsw_ef_search": config.hnsw_ef_search,
        "seed": config.seed,
    }


def plan_merge_index(
    vectors: np.ndarray,
    config: MergingConfig,
    cache=None,  # bench compat: item 1 deletes
):
    """:func:`~repro.ann.mutual.plan_side_index` for one side of a merge under ``config``.

    Every merge index and the serving session's query index are planned
    here, so their index builds agree bit for bit.
    """
    return plan_side_index(
        vectors,
        backend=config.index,
        brute_force_limit=config.brute_force_limit,
        index_kwargs=merge_index_kwargs(config),
        cache=cache,  # bench compat: item 1 deletes
    )


@default_executor
def merge_item_tables(
    left: ItemTable,
    right: ItemTable,
    config: MergingConfig,
    *,
    representative: str = "mean",
    executor: ParallelExecutor | None = None,
) -> tuple[ItemTable, int]:
    """Algorithm 3 on flat tables: merge two item tables into one.

    ``executor`` runs the merge's two builds and its query chunks (see
    :class:`_MergeSchedule`); without one a default executor serves the call
    and is closed with it.

    Returns:
        ``(merged_table, num_matched_pairs)`` — the merged table and how many
        mutual pairs were accepted (diagnostic).
    """
    merged, matched = _MergeSchedule(
        [left, right], [_Merge(1, 0, 1)], config, executor, representative
    ).run()
    return merged, matched[0]


@dataclass(frozen=True)
class _Merge:
    """One pair merge of a plan: ``left``'s rows query ``right``'s index first.

    Nodes below the input-table count are the input tables; node
    ``num_tables + j`` is the output of merge ``j``.
    """

    level: int
    left: int
    right: int


def _merge_plan(num_tables: int, seed: int) -> list[_Merge]:
    """Algorithm 2's merge tree, drawn before any merge runs.

    Tables are randomly paired at every level; with an odd number of tables
    the leftover one passes to the next level untouched. ``rng.permutation``
    depends on the table count alone, so this is the level loop's pairing.
    """
    rng = np.random.default_rng(seed)
    current, merges, level = list(range(num_tables)), [], 0
    while len(current) > 1:
        level += 1
        order = rng.permutation(len(current))
        merged = []
        for i in range(0, len(order) - 1, 2):
            merges.append(_Merge(level, current[order[i]], current[order[i + 1]]))
            merged.append(num_tables + len(merges) - 1)
        if len(order) % 2 == 1:
            merged.append(current[order[-1]])
        current = merged
    return merges


@dataclass(eq=False)
class _Task:
    """One task of a merge: ``run`` on a worker, then ``then(result)`` on the calling thread."""

    key: tuple  # (level, not a build, -build_rows, seq): the lowest starts first
    run: Callable[[], object]
    then: Callable[[object], None]
    build: "tuple[int, str] | None" = None  # (merge, side) of an index build


@dataclass(eq=False)
class _Pair:
    """Progress of one two-scan merge (``b`` is the right side, ``a`` the left)."""

    started: bool = False  # both input tables exist
    reserved: bool = False  # index slots taken for every side not built early
    admitted: set = field(default_factory=set)  # sides whose build may run
    backends: dict = field(default_factory=dict)  # side -> resolved backend
    indexes: dict = field(default_factory=dict)  # side -> built index, until backward ends
    forward: "list | None" = None  # chunk results, once the forward chunks are queued
    backward: "list | None" = None
    pending: int = 0  # chunks of the running direction not answered yet


class _MergeSchedule:
    """Every merge of a plan as one dependency-driven task graph.

    A pair merge is the tasks of :mod:`repro.ann.mutual`: the ``b`` and ``a``
    index builds, forward chunks (left rows against ``index_b``), trimmed
    backward chunks (against ``index_a``) and ``finish`` (intersection and
    union-find); an exact K = 1 pair is one task, :func:`exact_top1_pairs`
    then the union. A task is queued once its inputs exist — forward as soon
    as ``index_b`` is built, a graph-sized side's build as soon as its table
    exists, possibly while earlier levels still run (a brute-sized side waits
    for its partner: :func:`one_pass_pair` needs both shapes). The calling
    thread starts ready tasks whenever a worker is free — lowest level first,
    then builds, largest first — and waits for the first to complete; no task
    submits.

    At most ``2 * workers`` indexes are admitted and not yet freed (a pair's
    two are freed when its backward ends), and early builds leave two of those
    slots free, so the lowest unfinished pair can always start. The first
    failure propagates once the running tasks are drained; nothing new starts
    meanwhile.
    """

    def __init__(
        self,
        tables: "Sequence[ItemTable]",
        merges: list[_Merge],
        config: MergingConfig,
        executor: ParallelExecutor,
        representative: str,
        cache=None,  # bench compat: item 1 deletes
    ) -> None:
        self.config, self.executor, self.representative = config, executor, representative
        self.cache = cache  # bench compat: item 1 deletes
        self.merges = merges
        self.num_tables = len(tables)
        self.nodes: list[ItemTable | None] = [*tables, *([None] * len(merges))]
        self.nonempty = [len(table) > 0 for table in tables]
        for merge in merges:  # a merge's output is empty only where both inputs are
            self.nonempty.append(self.nonempty[merge.left] or self.nonempty[merge.right])
        self.consumer = {node: j for j, m in enumerate(merges) for node in (m.left, m.right)}
        self.pairs = [_Pair() for _ in merges]
        self.matched = [0] * len(merges)
        self.ready: list[_Task] = []
        self.running: dict[Future, _Task] = {}
        self.seq = itertools.count()
        self.limit = 2 * executor.workers
        self.alive = 0  # index slots admitted and not freed
        self.early = 0  # of those, built before the partner table exists

    def run(self) -> tuple[ItemTable, list[int]]:
        """The last merge's output (the integrated table) and each merge's matched pair count."""
        for node in range(self.num_tables):
            self._appeared(node)
        failure = None
        while self.running or (self.ready and failure is None):
            if failure is None:
                self._dispatch()
            failure = self._settle(wait(self.running, return_when=FIRST_COMPLETED).done, failure)
        if failure is not None:
            raise failure
        return self.nodes[-1], self.matched

    # ------------------------------------------------------------ dispatch
    def _dispatch(self) -> None:
        """Start the first admissible ready tasks until every worker is busy."""
        self.ready.sort(key=lambda task: task.key)
        blocked = False  # a build that may not start holds back every later build
        for task in list(self.ready):
            if len(self.running) >= self.executor.workers:
                break
            if task.build is not None and not self._admit(*task.build, blocked):
                blocked = True
                continue
            self.ready.remove(task)
            self.running[self.executor.submit(task.run)] = task
        if not self.running:
            raise RuntimeError("merge schedule stalled with tasks queued")  # invariant broken

    def _admit(self, j: int, side: str, blocked: bool) -> bool:
        """Take index slots for a build, or say it must wait (also behind a ``blocked`` build)."""
        pair = self.pairs[j]
        if not pair.reserved:
            if blocked:
                return False
            if not pair.started:  # early: keep two slots for the lowest started pair
                if self.alive + 1 > self.limit or self.early + 1 > self.limit - 2:
                    return False
                self.alive, self.early = self.alive + 1, self.early + 1
            else:  # the first build of a started pair takes the slots of both
                need = 2 - len(pair.admitted)
                if self.alive + need > self.limit:
                    return False
                self.alive, pair.reserved = self.alive + need, True
        pair.admitted.add(side)
        return True

    def _settle(self, done, failure: Exception | None) -> Exception | None:
        """Run the continuations of finished tasks; returns the first failure."""
        for future in sorted(done, key=lambda future: self.running[future].key[-1]):
            task = self.running.pop(future)
            if failure is None:
                try:
                    task.then(future.result())
                except Exception as error:
                    failure = error
        if failure is not None:
            self.ready.clear()
        return failure

    def _queue(self, level: int, run, then, build: "tuple[int, str] | None" = None, rows: int = 0):
        key = (level, build is None, -rows, next(self.seq))
        self.ready.append(_Task(key, run, then, build))

    # ---------------------------------------------------------- the graph
    def _appeared(self, node: int) -> None:
        """A table exists: start its merge, or build its graph index early."""
        j = self.consumer.get(node)
        if j is None or self.pairs[j].started:
            return
        merge = self.merges[j]
        partner = merge.left if node == merge.right else merge.right
        if self.nodes[partner] is not None:
            self._start(j)
            return
        table, config = self.nodes[node], self.config
        graph = resolve_backend(config.index, len(table), config.brute_force_limit) == "hnsw"
        if len(table) and self.nonempty[partner] and graph:
            self._plan_build(j, "b" if node == merge.right else "a")

    def _start(self, j: int) -> None:
        merge, pair, config = self.merges[j], self.pairs[j], self.config
        left, right = self.nodes[merge.left], self.nodes[merge.right]
        pair.started = True
        self.early -= len(pair.admitted)
        if not len(left) or not len(right):
            self._produced(j, (left if len(left) else right, 0))
        elif one_pass_pair(
            left.vectors, right.vectors, config.k, config.index, config.brute_force_limit
        ):
            finish = partial(self._finish, left, right, None, None)
            self._queue(merge.level, finish, partial(self._produced, j))
        else:
            for side in ("b", "a"):
                if side not in pair.backends:
                    self._plan_build(j, side)
            self._advance(j)

    def _plan_build(self, j: int, side: str) -> None:
        merge = self.merges[j]
        table = self.nodes[merge.right if side == "b" else merge.left]
        backend, build = plan_merge_index(
            table.vectors, self.config, self.cache  # bench compat: item 1 deletes
        )
        self.pairs[j].backends[side] = backend
        self._queue(merge.level, build, partial(self._built, j, side), (j, side), len(table))

    def _built(self, j: int, side: str, index) -> None:
        self.pairs[j].indexes[side] = index
        self._advance(j)

    def _advance(self, j: int) -> None:
        """Queue whatever the merge's finished tasks have made ready."""
        merge, pair = self.merges[j], self.pairs[j]
        if not pair.started or pair.pending:
            return
        left, right = self.nodes[merge.left], self.nodes[merge.right]
        if pair.forward is None and "b" in pair.indexes:  # (2) forward: a-rows against index_b
            pair.forward = self._directed(j, pair.indexes["b"], pair.backends["b"], left, len(left))
        elif pair.forward is not None and pair.backward is None and "a" in pair.indexes:
            # (3) backward: only the b-rows a forward answer returned, against index_a.
            asked = backward_rows(np.concatenate(pair.forward), pair.backends["a"], len(right))
            pair.backward = self._directed(j, pair.indexes["a"], pair.backends["a"], right, asked)
        if pair.backward is not None and not pair.pending:  # (4) finish; the union needs no index
            pair.indexes.clear()
            self.alive -= 2
            finish = partial(self._finish, left, right, pair.forward, pair.backward)
            self._queue(merge.level, finish, partial(self._produced, j))

    def _directed(self, j: int, index, backend: str, table: ItemTable, rows) -> list:
        """Queue one direction's query chunks; returns the list their answers fill, in order."""
        config, pair = self.config, self.pairs[j]
        chunks = row_chunks(rows, self.executor.workers if batch_invariant(backend) else 1)
        found: list = [None] * len(chunks)
        pair.pending = len(chunks)
        for slot, chunk in enumerate(chunks):
            run = partial(directed_pairs, index, table.vectors, config.k, config.m, chunk)
            self._queue(self.merges[j].level, run, partial(self._answered, j, found, slot))
        return found

    def _answered(self, j: int, found: list, slot: int, pairs: np.ndarray) -> None:
        found[slot] = pairs
        self.pairs[j].pending -= 1
        self._advance(j)

    def _finish(self, left: ItemTable, right: ItemTable, forward, backward) -> tuple[ItemTable, int]:
        """Intersection (or the one pass), distances and order, then the union-find."""
        config = self.config
        if forward is None:
            found = exact_top1_pairs(left.vectors, right.vectors, max_distance=config.m)
        else:
            found = mutual_pairs(forward, backward, left.vectors, right.vectors)
        merged = merge_tables_with_pairs(left, right, found, representative=self.representative)[0]
        return merged, len(found)

    def _produced(self, j: int, result: tuple[ItemTable, int]) -> None:
        merge, node = self.merges[j], self.num_tables + j
        self.nodes[node], self.matched[j] = result
        self.nodes[merge.left] = self.nodes[merge.right] = None  # consumed: free intermediates
        self._appeared(node)


def merge_tables_with_pairs(
    left: ItemTable,
    right: ItemTable,
    pairs: "Sequence",
    *,
    representative: str = "mean",
) -> tuple[ItemTable, np.ndarray]:
    """Union, relabel and materialize a two-table merge from given mutual pairs.

    The post-pair half of :func:`merge_item_tables`. ``pairs`` must be the
    :class:`~repro.ann.mutual.MutualPair` list in its canonical
    ``(distance, left, right)`` lexsort order — pair order drives the unions.

    Returns:
        ``(merged_table, node_of_group)`` where ``node_of_group[g]`` is the
        first concatenated node (left rows first, then right rows) of output
        group ``g``.
    """
    n_left, n_right = len(left), len(right)
    n = n_left + n_right

    # Integer union-find over np.arange(n): left items are nodes [0, n_left),
    # right items are nodes [n_left, n). Unions follow pair order (matched
    # right root attached under the left root), exactly like the historical
    # dict-of-tuples implementation — component membership and the
    # first-occurrence output order below are what byte-identity relies on.
    parent = list(range(n))
    for pair in pairs:
        a = pair.left
        while parent[a] != a:
            parent[a], a = parent[parent[a]], parent[a]
        b = n_left + pair.right
        while parent[b] != b:
            parent[b], b = parent[parent[b]], parent[b]
        if a != b:
            parent[b] = a
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            break
        roots = hopped

    # Relabel components in order of first occurrence (scan order: all left
    # items by position, then all right items) — the dict insertion order of
    # the historical implementation.
    unique_roots, first_seen, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty(len(unique_roots), dtype=np.int64)
    rank[np.argsort(first_seen, kind="stable")] = np.arange(len(unique_roots))
    group = rank[inverse]
    num_groups = len(unique_roots)
    group_node_counts = np.bincount(group, minlength=num_groups)

    sources, left_map, right_map = _union_sources(left, right)
    rows = partial(_node_rows, left.vectors, right.vectors)  # rows of the concatenated nodes
    node_member_counts = np.concatenate([left.sizes, right.sizes])
    node_weights = node_member_counts.astype(np.float32)
    node_member_starts = np.concatenate(
        [left.member_offsets[:-1], right.member_offsets[:-1] + left.member_sources.shape[0]]
    )
    member_sources_cat = np.concatenate(
        [left_map[left.member_sources], right_map[right.member_sources]]
    )
    member_indices_cat = np.concatenate([left.member_indices, right.member_indices])

    node_of_group = np.empty(num_groups, dtype=np.int64)
    node_of_group[group[::-1]] = np.arange(n - 1, -1, -1)  # first node of each group
    singles = np.flatnonzero(group_node_counts == 1)
    multis = np.flatnonzero(group_node_counts > 1)

    # ------------------------------------------------- representative vectors
    out_vectors = np.empty((num_groups, left.vectors.shape[1]), dtype=np.float32)
    out_vectors[singles] = rows(node_of_group[singles])
    if multis.size:
        node_order = np.argsort(group, kind="stable")
        multi_nodes = node_order[group_node_counts[group[node_order]] > 1]
        if representative == "medoid":
            bounds = np.concatenate(
                [[0], np.flatnonzero(np.diff(group[multi_nodes])) + 1, [multi_nodes.shape[0]]]
            )
            for start, stop in zip(bounds[:-1], bounds[1:]):
                nodes = multi_nodes[start:stop]
                pooled = medoid_pool(rows(nodes))
                out_vectors[group[nodes[0]]] = normalize_rows(pooled[None, :])[0]
        else:
            _grouped_mean_vectors(
                out_vectors, rows, node_weights, group, multi_nodes, group_node_counts
            )

    # --------------------------------------------------------- member lists
    if multis.size:
        multi_counts = node_member_counts[multi_nodes]
        src_pos = csr_positions(node_member_starts[multi_nodes], multi_counts)
        stream_group = np.repeat(group[multi_nodes], multi_counts)
        stream_sid = member_sources_cat[src_pos]
        stream_idx = member_indices_cat[src_pos]
        order = np.lexsort((stream_idx, stream_sid, stream_group))
        stream_group = stream_group[order]
        stream_sid = stream_sid[order]
        stream_idx = stream_idx[order]
        keep = np.ones(order.shape[0], dtype=bool)
        keep[1:] = (
            (stream_group[1:] != stream_group[:-1])
            | (stream_sid[1:] != stream_sid[:-1])
            | (stream_idx[1:] != stream_idx[:-1])
        )
        stream_group = stream_group[keep]
        stream_sid = stream_sid[keep]
        stream_idx = stream_idx[keep]
        multi_member_counts = np.bincount(stream_group, minlength=num_groups)
    else:
        stream_sid = np.zeros(0, dtype=np.int32)
        stream_idx = np.zeros(0, dtype=np.int64)
        multi_member_counts = np.zeros(num_groups, dtype=np.int64)

    out_counts = np.where(
        group_node_counts == 1, node_member_counts[node_of_group], multi_member_counts
    )
    out_offsets = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    out_member_sources = np.empty(int(out_offsets[-1]), dtype=np.int32)
    out_member_indices = np.empty(int(out_offsets[-1]), dtype=np.int64)

    single_nodes = node_of_group[singles]
    single_src = csr_positions(node_member_starts[single_nodes], node_member_counts[single_nodes])
    single_dst = csr_positions(out_offsets[singles], node_member_counts[single_nodes])
    out_member_sources[single_dst] = member_sources_cat[single_src]
    out_member_indices[single_dst] = member_indices_cat[single_src]
    if multis.size:
        multi_dst = csr_positions(out_offsets[multis], multi_member_counts[multis])
        out_member_sources[multi_dst] = stream_sid
        out_member_indices[multi_dst] = stream_idx

    merged = ItemTable(out_vectors, out_member_sources, out_member_indices, out_offsets, sources)
    return merged, node_of_group


@default_executor
def hierarchical_merge_tables(
    tables: list[ItemTable],
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache=None,  # bench compat: item 1 deletes
) -> tuple[ItemTable, MergeStats]:
    """Algorithm 2 on flat tables: merge all tables hierarchically until one remains.

    Tables are randomly paired at every level (seeded by ``config.seed``);
    with an odd number of tables the leftover table passes to the next level
    untouched. The whole tree is drawn first (:func:`_merge_plan`) and runs
    as one task graph (:class:`_MergeSchedule`), so no level waits for the
    slowest task of the one before it. Inside one hierarchy every table is
    indexed exactly once, by the one merge that consumes it. A table with no
    rows is left out of the plan: it matches nothing, and in the plan it
    would only redraw the pairing of the others.
    """
    stats = MergeStats()
    tables = [table for table in tables if len(table)]
    if not tables:
        return ItemTable.empty(), stats
    merges = _merge_plan(len(tables), config.seed)
    integrated, matched = _MergeSchedule(
        tables, merges, config, executor, representative, cache  # bench compat: item 1 deletes
    ).run()
    stats.levels = merges[-1].level if merges else 0
    stats.pair_merges = len(merges)
    for merge, found in zip(merges, matched):
        if merge.level > len(stats.matched_pairs_per_level):
            stats.matched_pairs_per_level.append(0)
        stats.matched_pairs_per_level[-1] += found
    return integrated, stats
