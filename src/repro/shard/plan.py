"""The :class:`ShardPlan`: per-table owner arrays plus the spill set.

A plan is the partitioner's output frozen into arrays: for every input table
one ``int32`` owner per row, where values ``0..num_shards-1`` are shard cores
and ``num_shards`` is the spill set (rows whose blocking keys straddle shards
without a plurality winner). The plan is a *true partition* — each row is
assigned exactly one owner, so the core row sets and the spill set are
pairwise disjoint and jointly exhaustive — which the property tests pin
across all four dataset generators and adversarially skewed inputs.

Owner arrays ride through every merge level (propagated via the union-find's
first-node map); they are snapshot into the session bundle
(:func:`repro.store.codecs.shard_plan_state`) so a sharded fit can save →
load → append.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import MergingConfig
from ..data.table import Table
from ..exceptions import ShardError
from .partition import lsh_owners, token_owners


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic shard assignment for a set of input tables.

    Attributes:
        num_shards: number of shard cores (``MergingConfig.shards``).
        shard_key: the key family that produced the assignment
            (``"lsh"`` or ``"token"``).
        table_names: one display name per input table, index-aligned with
            :attr:`owners`.
        owners: one ``int32`` array per table; ``owners[t][i]`` is row ``i``'s
            owner — ``0..num_shards-1`` for shard cores, :attr:`spill_id` for
            the spill set.
    """

    num_shards: int
    shard_key: str
    table_names: tuple[str, ...]
    owners: tuple[np.ndarray, ...]

    @property
    def spill_id(self) -> int:
        """The owner id of the spill set (always ``num_shards``)."""
        return self.num_shards

    def shard_rows(self, table_index: int, shard: int) -> np.ndarray:
        """Row ids of ``shard``'s core in one table (ascending)."""
        return np.flatnonzero(self.owners[table_index] == shard)

    def spill_rows(self, table_index: int) -> np.ndarray:
        """Row ids of the spill set in one table (ascending)."""
        return self.shard_rows(table_index, self.spill_id)

    def counts(self) -> np.ndarray:
        """Row counts per owner id across all tables, shape ``(num_shards + 1,)``."""
        if not self.owners:
            return np.zeros(self.num_shards + 1, dtype=np.int64)
        return np.bincount(
            np.concatenate([owners.astype(np.int64) for owners in self.owners]),
            minlength=self.num_shards + 1,
        )

    def validate(self, tables: "Sequence | None" = None) -> None:
        """Check the partition invariants (and row counts, when tables given)."""
        if self.num_shards < 1:
            raise ShardError("num_shards must be >= 1")
        if len(self.table_names) != len(self.owners):
            raise ShardError("table_names and owners must be index-aligned")
        for name, owners in zip(self.table_names, self.owners):
            if owners.ndim != 1 or owners.dtype != np.int32:
                raise ShardError(f"owners of {name!r} must be a 1-d int32 array")
            if owners.size and (owners.min() < 0 or owners.max() > self.spill_id):
                raise ShardError(f"owners of {name!r} outside [0, {self.spill_id}]")
        if tables is not None:
            if len(tables) != len(self.owners):
                raise ShardError("plan covers a different number of tables")
            for name, owners, table in zip(self.table_names, self.owners, tables):
                if len(owners) != len(table):
                    raise ShardError(
                        f"plan for {name!r} covers {len(owners)} rows, table has {len(table)}"
                    )


def plan_from_item_tables(tables: Sequence, config: MergingConfig) -> ShardPlan:
    """Build a plan from item tables' representative vectors (the LSH key)."""
    if config.shard_key != "lsh":
        raise ShardError(
            f"shard key {config.shard_key!r} cannot be computed from item tables alone; "
            "build the plan from the raw tables (plan_from_tables) instead"
        )
    owners = tuple(lsh_owners(table.vectors, config, config.shards) for table in tables)
    names = tuple("+".join(table.sources) if table.sources else f"table{i}" for i, table in enumerate(tables))
    plan = ShardPlan(config.shards, config.shard_key, names, owners)
    plan.validate(tables)
    return plan


def plan_from_tables(
    raw_tables: Sequence[Table],
    config: MergingConfig,
    attributes: Sequence[str] | None = None,
) -> ShardPlan:
    """Build a plan from raw record tables (the token-blocking key)."""
    if config.shard_key != "token":
        raise ShardError(f"plan_from_tables builds token plans, not {config.shard_key!r}")
    owners = tuple(token_owners(table, config.shards, attributes) for table in raw_tables)
    names = tuple(table.name for table in raw_tables)
    plan = ShardPlan(config.shards, config.shard_key, names, owners)
    plan.validate(raw_tables)
    return plan


def build_shard_plan(
    config: MergingConfig,
    *,
    item_tables: "Sequence | None" = None,
    raw_tables: Sequence[Table] | None = None,
    attributes: Sequence[str] | None = None,
) -> ShardPlan:
    """Dispatch to the right plan builder for ``config.shard_key``.

    The token key needs the raw record tables (it re-serializes and
    re-tokenizes every row); the LSH key only needs item-table vectors.
    """
    if config.shard_key == "token":
        if raw_tables is None:
            raise ShardError(
                "shard_key='token' needs the raw source tables; this entry point only "
                "holds item tables — use shard_key='lsh' or pass owner arrays explicitly"
            )
        return plan_from_tables(raw_tables, config, attributes)
    if item_tables is None:
        raise ShardError("shard_key='lsh' needs item tables to hash")
    return plan_from_item_tables(item_tables, config)
