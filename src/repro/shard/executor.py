"""The sharded merge driver: same level loop, per-shard fan-out, owner carry.

:func:`sharded_hierarchical_merge` mirrors
:func:`~repro.core.merging.hierarchical_merge_tables` step for step — the
same seeded ``rng.permutation`` pairing per level, the same odd-leftover
carry, the same :class:`~repro.core.merging.MergeStats` — but runs each pair
merge through the boundary engine (:mod:`repro.shard.boundary`): the merge's
directed query workload fans out per owner group over
:class:`~repro.core.parallel.ParallelExecutor` (serially or on its thread
pool, against indexes built once in the parent), while the union-find stitch
runs once in the parent via :func:`~repro.core.merging.merge_tables_with_pairs`.
Owner arrays propagate through every merge (a merged item inherits the owner
of its first constituent node — pure load-balancing bookkeeping; output bytes
never depend on it). Pruning does not read them: it chunks candidates the
same way at every shard count.

Parallelism shape: the sharded loop runs pairs sequentially and fans each
direction out across owner groups, where the unsharded loop splits the same
direction into contiguous row chunks (and builds and finishes pairs side by
side). Owner groups are the work-splitting boundary a multi-machine merge
would need; on one box they buy nothing over chunks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ann.cache import IndexCache
from ..config import MergingConfig
from ..core.merging import ItemTable, MergeStats, merge_tables_with_pairs
from ..core.parallel import ParallelExecutor, default_executor
from ..exceptions import ShardError
from .boundary import sharded_mutual_pairs


def _check_owners(table: ItemTable, owners: np.ndarray, what: str) -> np.ndarray:
    owners = np.asarray(owners, dtype=np.int32)
    if owners.ndim != 1 or len(owners) != len(table):
        raise ShardError(
            f"{what}: owner array covers {owners.shape} rows, table has {len(table)}"
        )
    return owners


def sharded_merge_item_tables(
    left: ItemTable,
    right: ItemTable,
    owners_left: np.ndarray,
    owners_right: np.ndarray,
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache: IndexCache | None = None,
) -> tuple[ItemTable, int, np.ndarray]:
    """Algorithm 3 with a per-shard query decomposition; owners carried through.

    Byte-identical merged table to
    :func:`~repro.core.merging.merge_item_tables` (same pairs via the
    boundary engine, same union-find stitch). Returns
    ``(merged, num_matched_pairs, merged_owners)``.
    """
    owners_left = _check_owners(left, owners_left, "left side")
    owners_right = _check_owners(right, owners_right, "right side")
    if len(left) == 0:
        return right, 0, owners_right
    if len(right) == 0:
        return left, 0, owners_left
    pairs = sharded_mutual_pairs(
        left.vectors,
        right.vectors,
        owners_left,
        owners_right,
        config,
        executor=executor,
        cache=cache,
    )
    merged, node_of_group = merge_tables_with_pairs(
        left, right, pairs, representative=representative
    )
    merged_owners = np.concatenate([owners_left, owners_right])[node_of_group]
    return merged, len(pairs), np.ascontiguousarray(merged_owners, dtype=np.int32)


@default_executor
def sharded_hierarchical_merge(
    tables: Sequence[ItemTable],
    owners: Sequence[np.ndarray],
    config: MergingConfig,
    *,
    executor: ParallelExecutor | None = None,
    representative: str = "mean",
    cache: IndexCache | None = None,
) -> tuple[ItemTable, MergeStats, np.ndarray]:
    """Algorithm 2 with per-shard merges: the unsharded hierarchy, decomposed.

    Consumes the *same* seeded RNG stream as
    :func:`~repro.core.merging.hierarchical_merge_tables` (one permutation
    per level), so the pairing — and therefore the output — is identical;
    each pair merge fans its query workload out per owner group instead of
    dispatching whole pairs. Returns ``(integrated, stats, item_owners)``.
    """
    if len(tables) != len(owners):
        raise ShardError(f"{len(tables)} tables but {len(owners)} owner arrays")
    stats = MergeStats()
    current = list(tables)
    current_owners: list[np.ndarray] = [
        _check_owners(table, owner, f"table {i}")
        for i, (table, owner) in enumerate(zip(current, owners))
    ]
    if not current:
        return ItemTable.empty(), stats, np.zeros(0, dtype=np.int32)
    rng = np.random.default_rng(config.seed)
    while len(current) > 1:
        stats.levels += 1
        order = rng.permutation(len(current))
        pair_indices = [(order[i], order[i + 1]) for i in range(0, len(order) - 1, 2)]
        leftover = [order[-1]] if len(order) % 2 == 1 else []
        matched_this_level = 0
        next_level: list[ItemTable] = []
        next_owners: list[np.ndarray] = []
        for li, ri in pair_indices:
            merged, matched, merged_owners = sharded_merge_item_tables(
                current[li],
                current[ri],
                current_owners[li],
                current_owners[ri],
                config,
                executor=executor,
                representative=representative,
                cache=cache,
            )
            next_level.append(merged)
            next_owners.append(merged_owners)
            matched_this_level += matched
        stats.pair_merges += len(pair_indices)
        stats.matched_pairs_per_level.append(matched_this_level)
        for index in leftover:
            next_level.append(current[index])
            next_owners.append(current_owners[index])
        current = next_level
        current_owners = next_owners
    return current[0], stats, current_owners[0]
