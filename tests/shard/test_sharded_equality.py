"""The sharding equality contract: sharded output == unsharded output, in bytes.

The full pipeline runs at shards ∈ {2, 4} under both shard keys and must
reproduce the unsharded run's predicted tuples (and the pinned music-20
regression digest) exactly; the merge layer is additionally pinned at the
ItemTable level, through a thread-pool executor, and through a
``REPRO_NATIVE=0`` subprocess leg.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import MergingConfig, MultiEMConfig, ParallelConfig, paper_default_config
from repro.core import MultiEM
from repro.core.merging import ItemTable, hierarchical_merge_tables
from repro.core.parallel import ParallelExecutor
from repro.data.generators import load_benchmark
from repro.shard import plan_from_item_tables, sharded_hierarchical_merge
from repro.store.codecs import item_table_digest

pytestmark = pytest.mark.shard

#: The unsharded music-20 tiny pipeline digest pinned by
#: tests/core/test_pipeline_regression.py — sharded runs must reproduce it.
MUSIC20_DIGEST = ("3d38fe4d81a1473d4ab8111104e5661eea972edff8856e387aa5bd431b54397d", 57)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")


def _digest(tuples) -> str:
    canonical = sorted(sorted((ref.source, ref.index) for ref in group) for group in tuples)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _music_config(**merging) -> MultiEMConfig:
    return paper_default_config("music-20").with_overrides(
        merging={"index": "hnsw", **merging}
    )


def _synthetic_tables(num_tables: int = 5, rows: int = 64, dim: int = 32) -> list:
    base = np.random.default_rng(7).normal(size=(rows, dim)).astype(np.float32)
    tables = []
    for seed in range(num_tables):
        rng = np.random.default_rng(seed + 1)
        vectors = (base + rng.normal(scale=0.01, size=(rows, dim))).astype(np.float32)
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
    return tables


@pytest.mark.smoke
def test_sharded_pipeline_smoke_matches_pinned_digest(music_tiny):
    """Tier-1 smoke leg: the 2-shard music-20 run reproduces the pinned digest."""
    result = MultiEM(_music_config(shards=2)).match(music_tiny)
    assert (_digest(result.tuples), len(result.tuples)) == MUSIC20_DIGEST


@pytest.mark.parametrize("shard_key", ("lsh", "token"))
@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_pipeline_equals_unsharded(music_tiny, shards, shard_key):
    reference = MultiEM(_music_config()).match(music_tiny)
    assert (_digest(reference.tuples), len(reference.tuples)) == MUSIC20_DIGEST
    sharded = MultiEM(_music_config(shards=shards, shard_key=shard_key)).match(music_tiny)
    assert _digest(sharded.tuples) == _digest(reference.tuples)
    assert sharded.metadata["matched_pairs_per_level"] == reference.metadata["matched_pairs_per_level"]
    assert sharded.metadata["num_candidate_tuples"] == reference.metadata["num_candidate_tuples"]


@pytest.mark.parametrize("backend", ("hnsw", "brute-force", "auto"))
def test_sharded_merge_item_table_bytes(backend):
    """Merged ItemTables are byte-identical for every backend resolution."""
    tables = _synthetic_tables()
    config = MergingConfig(index=backend, m=0.5)
    serial, serial_stats = hierarchical_merge_tables(tables, config)
    plan = plan_from_item_tables(
        [t for t in tables], MergingConfig(index=backend, m=0.5, shards=2, shard_key="lsh")
    )
    merged, stats, owners = sharded_hierarchical_merge(
        tables, plan.owners, MergingConfig(index=backend, m=0.5, shards=2, shard_key="lsh")
    )
    assert item_table_digest(merged) == item_table_digest(serial)
    assert stats.matched_pairs_per_level == serial_stats.matched_pairs_per_level
    assert owners.dtype == np.int32 and len(owners) == len(merged)


def test_sharded_merge_through_thread_executor():
    """The per-shard fan-out over the thread pool, against parent-built indexes."""
    tables = _synthetic_tables()
    config = MergingConfig(index="hnsw", m=0.5, shards=2, shard_key="lsh")
    serial, _ = hierarchical_merge_tables(
        tables,
        MergingConfig(index="hnsw", m=0.5),
        executor=ParallelExecutor(ParallelConfig(enabled=False)),
    )
    plan = plan_from_item_tables([t for t in tables], config)
    for enabled in (True, False):
        with ParallelExecutor(ParallelConfig(enabled=enabled, max_workers=2)) as ex:
            merged, _, owners = sharded_hierarchical_merge(tables, plan.owners, config, executor=ex)
        assert item_table_digest(merged) == item_table_digest(serial), enabled
        assert len(owners) == len(merged)


_NATIVE_OFF_SNIPPET = """\
import hashlib, json, sys
sys.path.insert(0, {src!r})
from repro.core import MultiEM
from repro.config import paper_default_config
from repro.data.generators import load_benchmark

dataset = load_benchmark("music-20", profile="tiny", seed=0)
def run(shards):
    config = paper_default_config("music-20").with_overrides(
        merging={{"index": "hnsw", "shards": shards, "shard_key": "lsh"}}
    )
    tuples = MultiEM(config).match(dataset).tuples
    canonical = sorted(sorted((r.source, r.index) for r in g) for g in tuples)
    return hashlib.sha256(repr(canonical).encode()).hexdigest(), len(tuples)
print(json.dumps({{"unsharded": run(1), "sharded": run(2)}}))
"""


def test_sharded_pipeline_native_off_leg():
    """REPRO_NATIVE=0: the pure-numpy engine keeps the equality contract too."""
    env = {**os.environ, "REPRO_NATIVE": "0"}
    completed = subprocess.run(
        [sys.executable, "-c", _NATIVE_OFF_SNIPPET.format(src=_SRC)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    assert payload["sharded"] == payload["unsharded"]
    assert tuple(payload["unsharded"]) == MUSIC20_DIGEST
