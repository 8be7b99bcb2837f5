"""Snapshots written while the index cache was persisted keep loading.

``data/seed-base.snap`` (a full save) and ``data/seed-tip.snap`` (one delta
on it) were written by the last version that persisted the matcher's index
cache: both manifests carry a non-null ``cache`` bundle, the base stores
``cache/`` segments, and both files carry manifest aliases and renamed
``ref`` ops onto them. Generated with::

    from repro import IncrementalMultiEM, load_benchmark, paper_default_config

    ds = load_benchmark("geo", profile="tiny")
    names = [t.name for t in ds.table_list()]
    config = paper_default_config("geo").with_overrides(representation={"dimension": 32})
    with IncrementalMultiEM(config) as matcher:
        matcher.fit(ds.subset(names[:3]))
        matcher.save("seed-base.snap", mode="full")
        matcher.add_table(ds.tables[names[3]])
        matcher.save("seed-tip.snap", mode="delta")

``data/seed-sharded.snap`` was written by the last version with the sharded
merge plane, so its manifest carries a ``shard`` bundle (one owner id per
integrated item) and the ``merging.shards`` / ``shard_key`` / ``index_cache``
/ ``index_cache_entries`` config keys. Generated with::

    python -m repro.cli snapshot save geo --shards 2 --exclude source_D \
        --output seed-sharded.snap

Sharded output was byte-identical to unsharded by contract, so the file must
load to exactly what an unsharded fit of the same tables computes.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.cli import main as cli_main
from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.serialization import serialize_table
from repro.exceptions import StoreError
from repro.store import (
    MatchSession,
    Snapshot,
    SnapshotChain,
    compact_session,
    fsck_store,
    load_matcher,
)
from repro.store.codecs import embedding_store_digest, item_table_digest

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FILES = ("seed-base.snap", "seed-tip.snap")


@pytest.fixture
def seed_dir(tmp_path):
    """A private copy of the fixture chain (loads sweep, fsck locks the directory)."""
    for name in FILES:
        shutil.copy(os.path.join(DATA, name), tmp_path / name)
    return tmp_path


@pytest.fixture(scope="module")
def reference(geo_tiny):
    """The in-memory matcher that did the same fit + add_table, and probe texts."""
    names = [table.name for table in geo_tiny.table_list()]
    config = paper_default_config("geo").with_overrides(representation={"dimension": 32})
    with IncrementalMultiEM(config) as matcher:
        matcher.fit(geo_tiny.subset(names[:3]))
        fit_digests = (
            item_table_digest(matcher.integrated_table),
            embedding_store_digest(matcher._store),
        )
        matcher.add_table(geo_tiny.tables[names[3]])
        texts = serialize_table(geo_tiny.tables[names[0]], None, max_tokens=64)[:6]
        texts.append("zzz qqqqq xyzzy 000000 nothing alike")
        with MatchSession(matcher) as session:
            answers = {k: session.query_many(texts, k=k) for k in (1, 3)}
        return {
            "fit_digests": fit_digests,
            "held_out": geo_tiny.tables[names[3]],
            "texts": texts,
            "answers": answers,
            "table_digest": item_table_digest(matcher.integrated_table),
            "store_digest": embedding_store_digest(matcher._store),
        }


def _cache_segments(path) -> list[str]:
    with Snapshot.open(path) as snapshot:
        return [
            name
            for name in snapshot.names()
            if name.startswith("cache/") and "alias_of" not in snapshot.entry(name)
        ]


def test_fixture_files_carry_a_cache_bundle():
    for name in FILES:
        with Snapshot.open(os.path.join(DATA, name)) as snapshot:
            assert snapshot.meta["cache"] is not None, name
    assert _cache_segments(os.path.join(DATA, "seed-base.snap"))


def test_tip_loads_with_one_warning_and_the_same_answers(seed_dir, reference, caplog):
    tip = seed_dir / "seed-tip.snap"
    with caplog.at_level("WARNING", logger="repro.store"):
        session = MatchSession.load(tip)  # verify=True: link, payload and object digests
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == 1, messages
    assert str(tip) in messages[0] and "cache" in messages[0]
    with session, SnapshotChain.open(tip) as chain:
        chain.verify_links()
        assert session.digests["item_table"] == reference["table_digest"]
        assert session.digests["embedding_store"] == reference["store_digest"]
        assert item_table_digest(session.matcher.integrated_table) == reference["table_digest"]
        assert embedding_store_digest(session.matcher._store) == reference["store_digest"]
        for k, answers in reference["answers"].items():
            assert session.query_many(reference["texts"], k=k) == answers


#: Merging keys retired with the shard plane and the index cache; every fixture carries them.
SHARD_AND_CACHE_KEYS = ("shards", "shard_key", "index_cache", "index_cache_entries")


@pytest.mark.parametrize("name", FILES)
def test_the_one_warning_also_names_the_retired_lsh_knobs(seed_dir, name, caplog):
    """Both files were written while ``merging.lsh_*`` were config fields."""
    with caplog.at_level("WARNING", logger="repro.store"):
        load_matcher(seed_dir / name).close()
    (message,) = [record.getMessage() for record in caplog.records]
    for key in ("lsh_num_tables", "lsh_num_bits", "lsh_probe_neighbors", *SHARD_AND_CACHE_KEYS):
        assert f"config key merging.{key} " in message, message


def test_tip_loads_in_copy_mode_with_the_same_state(seed_dir, reference):
    matcher = load_matcher(seed_dir / "seed-tip.snap", mmap=False)
    with matcher:
        assert item_table_digest(matcher.integrated_table) == reference["table_digest"]
        assert embedding_store_digest(matcher._store) == reference["store_digest"]
        with MatchSession(matcher) as session:
            assert session.query_many(reference["texts"], k=3) == reference["answers"][3]


def test_base_loads_with_one_warning_and_the_fit_state(seed_dir, reference, caplog):
    base = seed_dir / "seed-base.snap"
    with caplog.at_level("WARNING", logger="repro.store"):
        session = MatchSession.load(base)
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == 1, messages
    assert str(base) in messages[0] and "session.cache" in messages[0]
    with session:
        assert (
            item_table_digest(session.matcher.integrated_table),
            embedding_store_digest(session.matcher._store),
        ) == reference["fit_digests"]


def test_a_delta_written_now_on_the_old_base_holds_no_cache(seed_dir, reference, caplog):
    """A new delta may chain onto an old base; it refs nothing under ``cache/``."""
    with MatchSession.load(seed_dir / "seed-base.snap") as session:
        session.matcher.add_table(reference["held_out"])
        session.matcher.save(seed_dir / "new.snap.d1", mode="delta")
    with Snapshot.open(seed_dir / "new.snap.d1") as snapshot:
        assert snapshot.chain is not None and "cache" not in snapshot.meta
        assert not [name for name in snapshot.delta["arrays"] if name.startswith("cache/")]
        assert not [name for name in snapshot.names() if name.startswith("cache/")]
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.store"):
        session = MatchSession.load(seed_dir / "new.snap.d1")
    assert not caplog.records
    with session:
        assert item_table_digest(session.matcher.integrated_table) == reference["table_digest"]
        assert embedding_store_digest(session.matcher._store) == reference["store_digest"]
        assert session.query_many(reference["texts"], k=3) == reference["answers"][3]
    assert fsck_store(seed_dir).ok


def test_fsck_on_a_copy_is_ok(seed_dir):
    report = fsck_store(seed_dir)
    assert report.ok, report.format_table()
    assert {status.name: status.status for status in report.files} == {
        "seed-base.snap": "ok",
        "seed-tip.snap": "ok",
    }


def test_a_flipped_cache_byte_is_caught_by_the_digests_and_fsck(seed_dir):
    """The dropped bundle's segments stay covered: damage there is still damage."""
    base = seed_dir / "seed-base.snap"
    name = _cache_segments(base)[0]
    with Snapshot.open(base) as snapshot:
        offset = int(snapshot.entry(name)["offset"])
    data = bytearray(base.read_bytes())
    data[offset] ^= 0xFF
    base.write_bytes(bytes(data))
    with Snapshot.open(base) as snapshot:
        failures = [(n, d) for n, ok, d in snapshot.verify_segments() if not ok]
    assert failures and all(n.startswith("cache/") for n, _ in failures)
    assert all("the 'cache' bundle is corrupted" in detail for _, detail in failures)
    for path in (base, seed_dir / "seed-tip.snap"):
        with pytest.raises(StoreError):
            MatchSession.load(path)
    report = fsck_store(seed_dir)
    assert not report.ok
    assert {status.name: status.status for status in report.files} == {
        "seed-base.snap": "damaged",
        "seed-tip.snap": "orphaned",
    }


def test_compaction_writes_no_cache_segment(seed_dir, reference, caplog):
    compacted = seed_dir / "compacted.snap"
    compact_session(seed_dir / "seed-tip.snap", compacted)
    with Snapshot.open(compacted) as snapshot:
        assert not [name for name in snapshot.names() if name.startswith("cache/")]
        assert "cache" not in snapshot.meta
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.store"):
        session = MatchSession.load(compacted)
    assert not caplog.records
    with session:
        assert item_table_digest(session.matcher.integrated_table) == reference["table_digest"]
        assert session.query_many(reference["texts"], k=3) == reference["answers"][3]


def test_inspect_lists_the_cache_bundle(capsys):
    assert cli_main(["snapshot", "inspect", os.path.join(DATA, "seed-base.snap")]) == 0
    out = capsys.readouterr().out
    bundles = next(line for line in out.splitlines() if line.startswith("bundles: "))
    sizes = dict(part.rsplit(" ", 2)[:2] for part in bundles[len("bundles: "):].split(", "))
    assert list(sizes) == ["table", "store", "encoder", "cache"]
    assert int(sizes["cache"]) > 0


def test_inspect_counts_a_delta_under_its_logical_bundles(capsys):
    """``table/vectors#d/…`` counts under ``table``; a bundle the delta refs shows 0 B."""
    tip = os.path.join(DATA, "seed-tip.snap")
    assert cli_main(["snapshot", "inspect", tip]) == 0
    out = capsys.readouterr().out
    bundles = next(line for line in out.splitlines() if line.startswith("bundles: "))
    sizes = {
        bundle: int(size)
        for bundle, size, _ in (part.split(" ") for part in bundles[len("bundles: "):].split(", "))
    }
    assert list(sizes) == ["table", "store", "encoder", "cache"]
    assert sizes["encoder"] == sizes["cache"] == 0
    with Snapshot.open(tip) as snapshot:
        stored = {
            name: snapshot.entry(name)["nbytes"]
            for name in snapshot.names()
            if "alias_of" not in snapshot.entry(name)
        }
    assert any("#d/" in name for name in stored)
    assert sizes["table"] == sum(n for name, n in stored.items() if name.startswith("table/"))
    assert sum(sizes.values()) == sum(stored.values())


# ------------------------------------------------------------ sharded fixture
SHARDED = os.path.join(DATA, "seed-sharded.snap")


@pytest.fixture(scope="module")
def unsharded(geo_tiny, tmp_path_factory):
    """An unsharded fit of the sharded fixture's tables, saved and loaded the same way."""
    dataset = geo_tiny.subset(["source_A", "source_B", "source_C"], name=geo_tiny.name)
    path = tmp_path_factory.mktemp("unsharded") / "fit.snap"
    with IncrementalMultiEM(paper_default_config(dataset.name)) as matcher:
        matcher.fit(dataset)
        matcher.save(path)
    texts = serialize_table(geo_tiny.tables["source_A"], None, max_tokens=64)[:6]
    texts.append("zzz qqqqq xyzzy 000000 nothing alike")
    with MatchSession.load(path) as session:
        answers = {k: session.query_many(texts, k=k) for k in (1, 3)}
        added = session.match_new_table(geo_tiny.tables["source_D"]).tuples
        return {
            "digests": session.digests,
            "texts": texts,
            "answers": answers,
            "added": added,
            "added_table": item_table_digest(session.matcher.integrated_table),
        }


def test_sharded_fixture_carries_a_shard_bundle():
    with Snapshot.open(SHARDED) as snapshot:
        assert snapshot.meta["shard"]["type"] == "shard_plan"
        assert "shard/item_owners" in snapshot.names()
        assert snapshot.meta["config"]["merging"]["shards"] == 2


def test_sharded_fixture_loads_with_one_warning_naming_the_bundle_and_the_keys(tmp_path, caplog):
    shutil.copy(SHARDED, tmp_path / "seed-sharded.snap")
    with caplog.at_level("WARNING", logger="repro.store"):
        load_matcher(tmp_path / "seed-sharded.snap").close()
    (message,) = [record.getMessage() for record in caplog.records]
    assert "manifest bundle session.shard " in message, message
    for key in SHARD_AND_CACHE_KEYS:
        assert f"config key merging.{key} " in message, message


def test_sharded_fixture_answers_as_an_unsharded_fit(tmp_path, geo_tiny, unsharded):
    shutil.copy(SHARDED, tmp_path / "seed-sharded.snap")
    with MatchSession.load(tmp_path / "seed-sharded.snap") as session:
        digests = {key: session.digests[key] for key in ("item_table", "embedding_store")}
        assert digests == {key: unsharded["digests"][key] for key in digests}
        assert item_table_digest(session.matcher.integrated_table) == digests["item_table"]
        for k, answers in unsharded["answers"].items():
            assert session.query_many(unsharded["texts"], k=k) == answers
        assert session.match_new_table(geo_tiny.tables["source_D"]).tuples == unsharded["added"]
        assert item_table_digest(session.matcher.integrated_table) == unsharded["added_table"]
        session.matcher.save(tmp_path / "seed-sharded.snap.d1", mode="delta")
    with Snapshot.open(tmp_path / "seed-sharded.snap.d1") as snapshot:
        assert "shard" not in snapshot.meta
        assert not [name for name in snapshot.delta["arrays"] if name.startswith("shard/")]
    with MatchSession.load(tmp_path / "seed-sharded.snap.d1") as session:
        assert item_table_digest(session.matcher.integrated_table) == unsharded["added_table"]
