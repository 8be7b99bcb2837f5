"""Sharded merge plane: partition by blocking key, merge per shard, stitch exactly.

The hierarchical merge (PR 2's flat-array Algorithms 2-3) is one monolithic
pass; this package decomposes its workload along *blocking keys* — the
stepping stone from one-box batching toward a distributed merge — while
keeping the output **byte-identical to the unsharded pipeline** at any shard
count, key family, or executor backend:

* :mod:`repro.shard.partition` — the deterministic partitioner: every input
  row hashes to a shard through either its sign-random-projection
  signatures (:func:`~repro.shard.partition.lsh_row_keys`, 8 hash tables of
  12 bits seeded by ``MergingConfig.seed``) or its token keys (the distinct
  word tokens of its serialized record, three characters or longer). A row's
  keys vote; the plurality shard owns the row, and rows whose keys straddle
  shards without a winner land in the *spill* set.
* :mod:`repro.shard.plan` — :class:`ShardPlan`: per-table ``int32`` owner
  arrays (values ``0..num_shards-1`` are shard cores, ``num_shards`` is the
  spill set), a true partition — each row assigned exactly once, spill
  disjoint from every core — pinned by the property tests across all four
  dataset generators.
* :mod:`repro.shard.boundary` — the exactness engine. Rather than merging
  shards in isolation (whose per-shard neighbourhoods would diverge from the
  global ANN answer), each two-table merge keeps full-side indexes and
  decomposes the *query* workload by owner group: the batch-invariant
  backend (HNSW) answers each group's rows bit-identically to the whole-batch
  call, so the union of per-group directed pairs equals the global directed
  set, and one cross-shard boundary intersection rebuilds exactly the
  unsharded mutual-pair list — same pairs, same distances, same order.
* :mod:`repro.shard.executor` — the driver: the same seeded level loop as
  :func:`~repro.core.merging.hierarchical_merge_tables`, with every pair
  merge fanned out per owner group through
  :class:`~repro.core.parallel.ParallelExecutor` (serial or thread pool) and
  owner propagation through the vectorized union-find.

Equality contract
-----------------

``serial == sharded`` holds unconditionally — not just on friendly data —
because owner arrays only ever choose *which batch* a query row rides in,
never what any row answers: batch-invariant backends are pinned per-row
(``tests/serve/test_coalescer.py``), the brute-force backend (not
batch-invariant) keeps its whole-batch call in the parent, and the stitch
reuses :func:`~repro.core.merging.merge_tables_with_pairs` verbatim. The
contract is pinned by ``tests/shard/`` against the regression fixtures under
both ``REPRO_NATIVE`` settings, including save → load → append of a sharded
fit.
"""

from .boundary import sharded_mutual_pairs
from .executor import sharded_hierarchical_merge, sharded_merge_item_tables
from .partition import assign_owners, lsh_row_keys, token_row_keys
from .plan import ShardPlan, build_shard_plan, plan_from_item_tables, plan_from_tables

__all__ = [
    "ShardPlan",
    "assign_owners",
    "build_shard_plan",
    "lsh_row_keys",
    "plan_from_item_tables",
    "plan_from_tables",
    "sharded_hierarchical_merge",
    "sharded_merge_item_tables",
    "sharded_mutual_pairs",
    "token_row_keys",
]
