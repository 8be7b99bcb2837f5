"""Sharded fits persist: save → load → append round trips, owners included.

A sharded fit snapshots its owner array alongside the integrated table (a
``shard`` bundle appended to the session meta), a restored matcher keeps
merging shard-wise through ``add_table``, and the resulting state is
byte-identical to the never-sharded (and never-snapshotted) reference.
Unsharded snapshots must not change by a single byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.store.codecs import item_table_digest
from repro.store.format import Snapshot
from repro.store.session import load_matcher

pytestmark = pytest.mark.shard


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    return music_tiny.subset(names[:-1], name=music_tiny.name), music_tiny.tables[names[-1]]


@pytest.fixture(scope="module")
def reference(split):
    """Unsharded fit + append: the state every sharded round trip must equal."""
    base, held_out = split
    matcher = IncrementalMultiEM(_config())
    matcher.fit(base)
    result = matcher.add_table(held_out)
    state = (item_table_digest(matcher.integrated_table), {frozenset(t) for t in result.tuples})
    matcher.close()
    return state


def _config(**merging):
    return paper_default_config("music-20").with_overrides(
        merging={"index": "hnsw", **merging}
    )


@pytest.mark.parametrize("shard_key", ("lsh", "token"))
def test_sharded_fit_save_load_append_round_trip(split, reference, tmp_path, shard_key):
    base, held_out = split
    matcher = IncrementalMultiEM(_config(shards=2, shard_key=shard_key))
    matcher.fit(base)
    fitted_owners = matcher._item_owners
    assert fitted_owners is not None and len(fitted_owners) == len(matcher.integrated_table)

    path = tmp_path / "sharded.snap"
    matcher.save(path)
    matcher.close()
    with Snapshot.open(path) as snapshot:
        shard_meta = snapshot.meta["shard"]
        assert shard_meta["num_shards"] == 2 and shard_meta["shard_key"] == shard_key
        assert list(snapshot.meta)[-1] == "shard"  # appended last, by contract

    loaded = load_matcher(path)
    assert np.array_equal(loaded._item_owners, fitted_owners)
    result = loaded.add_table(held_out)
    assert (
        item_table_digest(loaded.integrated_table),
        {frozenset(t) for t in result.tuples},
    ) == reference

    # The append persists as a chain delta; the reloaded tip still carries
    # the advanced owner array and the byte-identical integrated table.
    delta = tmp_path / "sharded.snap.d1"
    loaded.save(delta, mode="delta")
    reloaded = load_matcher(delta)
    assert item_table_digest(reloaded.integrated_table) == reference[0]
    assert np.array_equal(reloaded._item_owners, loaded._item_owners)
    loaded.close()
    reloaded.close()


def test_unsharded_snapshot_bytes_unchanged(split, tmp_path):
    """The sharding feature adds nothing to an unsharded snapshot's manifest."""
    base, _ = split
    matcher = IncrementalMultiEM(_config())
    matcher.fit(base)
    assert matcher._item_owners is None
    path = tmp_path / "plain.snap"
    matcher.save(path)
    matcher.close()
    with Snapshot.open(path) as snapshot:
        assert "shard" not in snapshot.meta
        assert not [name for name in snapshot.names() if name.startswith("shard/")]
    loaded = load_matcher(path)
    assert loaded._item_owners is None
    loaded.close()
