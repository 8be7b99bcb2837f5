"""Partition-property tests: every ShardPlan is a true partition.

For each of the four dataset generators (music/person/product/geo) and for
adversarially skewed inputs (every row hashing into one hot bucket), both key
families must assign every row exactly one owner in ``[0, spill_id]``, with
the shard cores and the spill set pairwise disjoint and jointly exhaustive —
and the assignment must be deterministic across calls.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import MergingConfig
from repro.core.merging import ItemTable
from repro.core.representation import EntityRepresenter
from repro.config import RepresentationConfig
from repro.data.generators import load_benchmark
from repro.data.table import Table
from repro.exceptions import ShardError
from repro.shard import (
    ShardPlan,
    assign_owners,
    build_shard_plan,
    plan_from_item_tables,
    plan_from_tables,
)
from repro.shard.partition import lsh_owners, lsh_row_keys, token_owners

pytestmark = pytest.mark.shard

GENERATORS = ("music-20", "person", "product", "geo")


def _assert_true_partition(plan: ShardPlan, tables) -> None:
    plan.validate(tables)
    for t, table in enumerate(tables):
        owners = plan.owners[t]
        assert owners.shape == (len(table),)
        seen = np.zeros(len(table), dtype=np.int64)
        groups = [plan.shard_rows(t, shard) for shard in range(plan.num_shards)]
        groups.append(plan.spill_rows(t))
        for rows in groups:
            seen[rows] += 1
        # Exactly once: cores and spill are disjoint and jointly exhaustive.
        assert np.array_equal(seen, np.ones(len(table), dtype=np.int64))
    assert int(plan.counts().sum()) == sum(len(table) for table in tables)


def _encode(dataset):
    representer = EntityRepresenter(RepresentationConfig())
    representer.fit(dataset, dataset.schema)
    embeddings = representer.encode_dataset(dataset, dataset.schema)
    return [ItemTable.from_embeddings(embeddings[t.name]) for t in dataset.table_list()]


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("shards", (1, 2, 4))
def test_token_plan_is_true_partition(name, shards):
    dataset = load_benchmark(name, profile="tiny", seed=0)
    config = MergingConfig(shards=shards, shard_key="token")
    plan = plan_from_tables(dataset.table_list(), config)
    _assert_true_partition(plan, dataset.table_list())
    again = plan_from_tables(dataset.table_list(), config)
    for a, b in zip(plan.owners, again.owners):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("shards", (2, 4))
def test_lsh_plan_is_true_partition(name, shards):
    dataset = load_benchmark(name, profile="tiny", seed=0)
    item_tables = _encode(dataset)
    config = MergingConfig(shards=shards, shard_key="lsh")
    plan = plan_from_item_tables(item_tables, config)
    _assert_true_partition(plan, item_tables)
    again = plan_from_item_tables(item_tables, config)
    for a, b in zip(plan.owners, again.owners):
        assert np.array_equal(a, b)


def _lsh_key_vectors() -> np.ndarray:
    return np.random.default_rng(3).normal(size=(80, 24)).astype(np.float32)


@pytest.mark.parametrize(
    "seed, digest",
    [(0, "7bf9ffd2b34edbef7264b2656fa0dfaa"), (7, "3e4c4c6464abbfc70a7480adc72d08c3")],
)
def test_lsh_row_keys_are_the_signatures_of_8_tables_of_12_bits(seed, digest):
    """Pinned to the bytes the keys had while the table and bit counts were config knobs."""
    keys = lsh_row_keys(_lsh_key_vectors(), MergingConfig(seed=seed))
    assert keys.shape == (80, 8) and keys.dtype == np.int64
    assert 0 <= keys.min() and keys.max() < 1 << 12
    assert hashlib.blake2b(keys.tobytes(), digest_size=16).hexdigest() == digest


def test_lsh_row_keys_deterministic_and_seed_sensitive():
    vectors = _lsh_key_vectors()
    keys = lsh_row_keys(vectors, MergingConfig())
    assert np.array_equal(keys, lsh_row_keys(vectors, MergingConfig()))
    assert not np.array_equal(keys, lsh_row_keys(vectors, MergingConfig(seed=1)))


def test_lsh_row_keys_rejects_non_matrix_input():
    with pytest.raises(ShardError, match="2-d"):
        lsh_row_keys(np.zeros(8, dtype=np.float32), MergingConfig())


def test_lsh_plan_survives_single_hot_bucket():
    """Identical vectors all land in one LSH bucket: still a valid partition."""
    config = MergingConfig(shards=4, shard_key="lsh")
    vectors = np.tile(np.arange(16, dtype=np.float32), (50, 1))
    owners = lsh_owners(vectors, config, config.shards)
    assert owners.shape == (50,)
    assert 0 <= owners.min() and owners.max() <= config.shards
    # One hot bucket means one owner for every row — maximally skewed, legal.
    assert len(np.unique(owners)) == 1


def test_token_plan_survives_single_hot_bucket():
    """Every row sharing one blocking token still partitions (and spills ties)."""
    rows = [("alpha common",)] * 40
    table = Table("hot", ("title",), rows)
    owners = token_owners(table, 4)
    assert owners.shape == (40,)
    assert len(np.unique(owners)) == 1
    # A row with no token of blocking length goes to the spill set.
    short = Table("short", ("title",), [("a b",), ("xy z",)])
    assert np.array_equal(token_owners(short, 4), np.full(2, 4, dtype=np.int32))


def test_assign_owners_plurality_tie_and_empty_rows_spill():
    votes_matrix = np.array(
        [
            [0, 0, 1],  # plurality 0
            [1, 1, 0],  # plurality 1
            [0, 1, 2],  # three-way tie -> spill
        ]
    )
    assert np.array_equal(assign_owners(votes_matrix, 3), np.array([0, 1, 3], dtype=np.int32))
    ragged = [[2, 2, 0], [], [0, 1]]
    assert np.array_equal(assign_owners(ragged, 3), np.array([2, 3, 3], dtype=np.int32))


def test_build_shard_plan_dispatch_and_errors():
    dataset = load_benchmark("geo", profile="tiny", seed=0)
    token_config = MergingConfig(shards=2, shard_key="token")
    plan = build_shard_plan(token_config, raw_tables=dataset.table_list())
    assert plan.shard_key == "token" and plan.spill_id == 2
    with pytest.raises(ShardError):
        build_shard_plan(token_config, item_tables=[])  # token key needs raw tables
    lsh_config = MergingConfig(shards=2, shard_key="lsh")
    with pytest.raises(ShardError):
        build_shard_plan(lsh_config)  # lsh key needs item tables
    with pytest.raises(ShardError):
        plan_from_item_tables([], token_config)  # wrong key family for this entry
