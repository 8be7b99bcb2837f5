"""Session saves spread their digests over the matcher's pool: same bytes either way.

A save computes the item-table, payload and per-segment digests and the
digest of every embedding-store block not hashed before as one flat map on
the matcher's executor. Serial and threaded
executors must write byte-identical full, delta and compacted files, and a
digest task that fails must leave no file and the recorded base untouched.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.config import ParallelConfig, paper_default_config
from repro.core import incremental
from repro.core.incremental import IncrementalMultiEM
from repro.core.parallel import ParallelExecutor
from repro.store import Snapshot, codecs, load_matcher, save_session
from repro.store.codecs import item_table_digest
from repro.store.session import compact_session, save_session_delta


def executor_factory(threaded: bool):
    """Stand-in for ``ParallelExecutor(config.parallel)``: serial, or 2 threads.

    Patched over the matcher module so fitted *and* restored (compaction)
    matchers use it, while every config, and so every manifest, stays the same.
    """

    def make(_config) -> ParallelExecutor:
        return ParallelExecutor(ParallelConfig(enabled=threaded, max_workers=2))

    return make


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-2], name=music_tiny.name)
    return base, music_tiny.tables[names[-2]], music_tiny.tables[names[-1]]


def _write_chain(directory, split) -> "tuple[dict[str, bytes], list[dict]]":
    base, t1, t2 = split
    with IncrementalMultiEM(paper_default_config(base.name)) as matcher:
        matcher.fit(base)
        records = [save_session(matcher, directory / "s.snap")]
        for depth, table in ((1, t1), (2, t2)):
            matcher.add_table(table)
            records.append(save_session_delta(matcher, directory / f"s.snap.d{depth}"))
    records.append(compact_session(directory / "s.snap.d2", directory / "c.snap"))
    files = {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}
    return files, records


def test_serial_and_threaded_saves_write_the_same_bytes(split, tmp_path, monkeypatch):
    written = {}
    hashing_threads = set()
    block_digest = codecs.store_block_digest

    def recording(segment, block):
        hashing_threads.add(threading.current_thread() is threading.main_thread())
        return block_digest(segment, block)

    monkeypatch.setattr(codecs, "store_block_digest", recording)
    for threaded in (False, True):
        monkeypatch.setattr(incremental, "ParallelExecutor", executor_factory(threaded))
        directory = tmp_path / f"threaded-{threaded}"
        directory.mkdir()
        written[threaded] = _write_chain(directory, split)
    files, records = written[False]
    assert list(files) == ["c.snap", "s.snap", "s.snap.d1", "s.snap.d2"]
    assert written[True] == (files, records)
    assert hashing_threads == {True, False}, "the threaded saves never left the main thread"


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
def test_a_failing_digest_task_writes_nothing_and_keeps_the_base(
    split, tmp_path, monkeypatch, threaded
):
    base, t1, _ = split
    monkeypatch.setattr(incremental, "ParallelExecutor", executor_factory(threaded))
    block_digest = codecs.store_block_digest

    def failing(segment, block):
        raise RuntimeError("digest task failed")

    with IncrementalMultiEM(paper_default_config(base.name)) as matcher:
        matcher.fit(base)
        monkeypatch.setattr(codecs, "store_block_digest", failing)
        with pytest.raises(RuntimeError, match="digest task failed"):
            save_session(matcher, tmp_path / "never.snap")
        assert matcher._base is None
        monkeypatch.setattr(codecs, "store_block_digest", block_digest)
        save_session(matcher, tmp_path / "s.snap")
        recorded = matcher._base

        matcher.add_table(t1)
        monkeypatch.setattr(codecs, "store_block_digest", failing)
        with pytest.raises(RuntimeError, match="digest task failed"):
            save_session_delta(matcher, tmp_path / "s.snap.d1")
        assert matcher._base is recorded
        assert sorted(os.listdir(tmp_path)) == ["s.snap"]

        monkeypatch.setattr(codecs, "store_block_digest", block_digest)
        save_session_delta(matcher, tmp_path / "s.snap.d1")
        with Snapshot.open(tmp_path / "s.snap.d1") as delta:
            assert delta.chain["parent"] == "s.snap" and delta.chain["depth"] == 1
            assert delta.chain["parent_payload"] == recorded["payload"]
        restored = load_matcher(tmp_path / "s.snap.d1")
        assert item_table_digest(restored.integrated_table) == item_table_digest(
            matcher.integrated_table
        )
