"""fsck/repair, chain GC, writer lock, and the corruption-message matrix.

Three recovery layers under test: (1) every kind of file damage — header,
manifest, segment payload — produces a *distinct, actionable* error naming
what is broken; (2) ``fsck_store`` classifies whole directories (damaged /
orphaned / swept), quarantines on repair, and ``deepest_intact`` +
``allow_rollback`` serve the newest surviving state; (3) ``gc_store`` deletes
only marker-authorized, unreachable chain files — never a file a surviving
tip still needs.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.exceptions import StoreError, StoreLockedError
from repro.store import (
    MatchSession,
    Snapshot,
    SnapshotWriter,
    StoreLock,
    deepest_intact,
    fsck_store,
    gc_store,
    load_matcher,
    save_session,
)
from repro.store.codecs import embedding_store_digest, item_table_digest
from repro.store.fsck import retirement_marker_path, sweep_partials
from repro.store.format import _HEADER
from repro.store.session import compact_session, save_session_delta

pytestmark = pytest.mark.faults

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
#: A full save written while the index cache was persisted (see test_seed_snapshots.py).
SEED_BASE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "seed-base.snap")


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _segment_offset(path, prefix: str) -> int:
    """Offset of the first canonical segment of one bundle (``table/`` …)."""
    with Snapshot.open(path) as snapshot:
        for name in snapshot.names():
            entry = snapshot.entry(name)
            if name.startswith(prefix) and "alias_of" not in entry and entry["nbytes"]:
                return int(entry["offset"])
    raise AssertionError(f"no non-empty canonical segment under {prefix!r}")


def _as_written_before_the_manifest_payload(path) -> None:
    """Rewrite a session file and its retirement marker as written before the
    manifest payload digest: the same segments, no ``payload_scheme``, the stream payload."""
    with Snapshot.open(path, mmap=False) as snapshot:
        writer = SnapshotWriter()
        for name in snapshot.names():
            writer.add_array(name, snapshot.array(name))
        meta, payload = snapshot.meta, snapshot.legacy_payload_digest()
    del meta["digests"]["payload_scheme"]
    meta["digests"]["payload"] = payload
    writer.set_meta(meta)
    writer.save(path)
    marker_path = retirement_marker_path(path)
    with open(marker_path, encoding="utf-8") as handle:
        marker = json.load(handle)
    marker["compacted_payload"] = payload
    with open(marker_path, "w", encoding="utf-8") as handle:
        json.dump(marker, handle)


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-2], name=music_tiny.name)
    return base, music_tiny.tables[names[-2]], music_tiny.tables[names[-1]]


@pytest.fixture(scope="module")
def chain_template(split, tmp_path_factory):
    """Pristine store directory: s.snap -> s.snap.d1 -> s.snap.d2.

    Tests copy it (``_clone``) before damaging anything. Also records the
    per-depth state digests the recovery paths must reproduce.
    """
    base, t1, t2 = split
    directory = tmp_path_factory.mktemp("pristine")
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    matcher.fit(base)
    states = []
    save_session(matcher, directory / "s.snap")
    states.append((item_table_digest(matcher.integrated_table),
                   embedding_store_digest(matcher._store)))
    for depth, table in ((1, t1), (2, t2)):
        matcher.add_table(table)
        save_session_delta(matcher, directory / f"s.snap.d{depth}")
        states.append((item_table_digest(matcher.integrated_table),
                       embedding_store_digest(matcher._store)))
    matcher.close()
    return directory, states


def _clone(chain_template, tmp_path):
    directory, states = chain_template
    clone = tmp_path / "store"
    clone.mkdir()
    for name in os.listdir(directory):
        (clone / name).write_bytes((directory / name).read_bytes())
    return clone, states


# --------------------------------------------------------- corruption matrix
#: Damage to a file's header or length, and the message each must produce.
_HEADER_DAMAGE = pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda p: _flip_byte(p, 0), "bad magic"),
        (
            lambda p: p.write_bytes(
                _HEADER.pack(b"REPROSNP", 99, *_HEADER.unpack(p.read_bytes()[: _HEADER.size])[2:])
                + p.read_bytes()[_HEADER.size :]
            ),
            "version 99 is not supported",
        ),
        (lambda p: p.write_bytes(p.read_bytes()[: _HEADER.size + 64]), "extends past the buffer end"),
        (lambda p: p.write_bytes(p.read_bytes()[:-16]), "extends past the buffer end"),
        (lambda p: p.write_bytes(b""), "buffer too small to be a snapshot"),
    ],
    ids=["magic", "version", "truncated-deep", "truncated-tail", "zero-bytes"],
)


class TestCorruptionMessages:
    """Every damage class gets its own actionable message, no silent loads."""

    @_HEADER_DAMAGE
    @pytest.mark.parametrize("mmap", [True, False])
    def test_header_and_truncation(self, chain_template, tmp_path, mutate, expected, mmap):
        clone, _ = _clone(chain_template, tmp_path)
        target = clone / "s.snap"
        mutate(target)
        for load in (Snapshot.open, load_matcher, MatchSession.load):
            with pytest.raises(StoreError) as excinfo:
                load(target, mmap=mmap)
            assert expected in str(excinfo.value), load

    def test_manifest_garbage(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        target = clone / "s.snap"
        offset = _HEADER.unpack(target.read_bytes()[: _HEADER.size])[2]
        _flip_byte(target, offset + 2)
        with pytest.raises(StoreError) as excinfo:
            Snapshot.open(target)
        assert "manifest" in str(excinfo.value)

    def test_malformed_manifest_entry(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        target = clone / "s.snap"
        raw = target.read_bytes()
        magic, version, offset, length = _HEADER.unpack(raw[: _HEADER.size])
        manifest = json.loads(raw[offset : offset + length].decode("utf-8"))
        name = next(n for n, e in manifest["arrays"].items() if "alias_of" not in e)
        manifest["arrays"][name]["dtype"] = "no-such-dtype"
        encoded = json.dumps(manifest).encode("utf-8")
        target.write_bytes(
            _HEADER.pack(magic, version, offset, len(encoded)) + raw[_HEADER.size:offset] + encoded
        )
        with Snapshot.open(target) as snapshot:
            with pytest.raises(StoreError) as excinfo:
                snapshot.array(name)
        message = str(excinfo.value)
        assert "malformed manifest entry" in message and name in message

    @pytest.mark.parametrize("prefix", ["table/", "store/", "encoder/", "cache/"])
    def test_payload_flip_names_the_corrupted_bundle(self, chain_template, tmp_path, prefix):
        """One flipped byte in any codec's segments names that codec's bundle.

        New files have no ``cache/`` segment; that case damages an old file's.
        """
        clone, _ = _clone(chain_template, tmp_path)
        target = clone / "s.snap"
        if prefix == "cache/":
            shutil.copy(SEED_BASE, target)
        _flip_byte(target, _segment_offset(target, prefix))
        with Snapshot.open(target) as snapshot:
            failures = [(n, d) for n, ok, d in snapshot.verify_segments() if not ok]
        assert failures, f"flip inside {prefix!r} went undetected"
        bundle = prefix.rstrip("/")
        assert all(f"the {bundle!r} bundle is corrupted" in detail for _, detail in failures)
        assert all(name.startswith(prefix) for name, _ in failures)
        if prefix != "store/":
            with pytest.raises(StoreError):
                load_matcher(target)
            return
        # A store block is checked the first time its bytes are read.
        with load_matcher(target) as matcher:
            with pytest.raises(StoreError, match=failures[0][0]):
                matcher._store.blocks()

    @pytest.mark.parametrize("native", ["0", "1"])
    def test_corruption_detected_with_and_without_native_kernel(
        self, chain_template, tmp_path, native
    ):
        clone, _ = _clone(chain_template, tmp_path)
        target = clone / "s.snap.d2"
        _flip_byte(target, _segment_offset(target, "table/"))
        script = (
            "import pytest, sys\n"
            "from repro.exceptions import StoreError\n"
            "from repro.store import load_matcher\n"
            f"try:\n    load_matcher({str(target)!r})\n"
            "except StoreError as exc:\n"
            "    assert 'corrupted' in str(exc), str(exc)\n    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_NATIVE=native)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ fsck/gc
class TestFsck:
    def test_pristine_store_is_ok(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        report = fsck_store(clone)
        assert report.ok
        verdicts = {s.name: s.status for s in report.files}
        assert verdicts == {"s.snap": "ok", "s.snap.d1": "ok", "s.snap.d2": "ok"}
        assert "verified" in report.format_table()

    def test_damaged_parent_orphans_descendants(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        _flip_byte(clone / "s.snap.d1", _segment_offset(clone / "s.snap.d1", "table/"))
        report = fsck_store(clone)
        assert not report.ok
        files = {status.name: status for status in report.files}
        assert files["s.snap"].status == "ok"
        assert files["s.snap.d1"].status == "damaged"
        assert files["s.snap.d2"].status == "orphaned"
        assert "ancestry runs through" in files["s.snap.d2"].detail

    def test_repair_quarantines_and_leaves_loadable_store(self, chain_template, tmp_path):
        clone, states = _clone(chain_template, tmp_path)
        _flip_byte(clone / "s.snap.d1", _segment_offset(clone / "s.snap.d1", "table/"))
        report = fsck_store(clone, repair=True)
        assert report.ok and len(report.quarantined) == 2
        assert sorted(os.listdir(clone / "quarantine")) == ["s.snap.d1", "s.snap.d2"]
        assert fsck_store(clone).ok
        matcher = load_matcher(clone / "s.snap")
        assert item_table_digest(matcher.integrated_table) == states[0][0]

    def test_missing_parent_is_reported(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        os.unlink(clone / "s.snap.d1")
        report = fsck_store(clone)
        assert not report.ok
        files = {status.name: status for status in report.files}
        assert files["s.snap.d2"].status == "orphaned"
        assert "missing" in files["s.snap.d2"].detail

    def test_rollback_serves_deepest_intact_ancestor(self, chain_template, tmp_path):
        clone, states = _clone(chain_template, tmp_path)
        tip = clone / "s.snap.d2"
        _flip_byte(tip, _segment_offset(tip, "table/"))
        assert os.path.basename(deepest_intact(tip)) == "s.snap.d1"
        with pytest.raises(StoreError):
            load_matcher(tip)  # rollback is opt-in, never silent
        matcher = load_matcher(tip, allow_rollback=True)
        assert item_table_digest(matcher.integrated_table) == states[1][0]
        assert embedding_store_digest(matcher._store) == states[1][1]
        # Damage deeper in the chain rolls all the way back to the base.
        _flip_byte(clone / "s.snap.d1", _segment_offset(clone / "s.snap.d1", "store/"))
        assert os.path.basename(deepest_intact(tip)) == "s.snap"
        session = MatchSession.load(tip, allow_rollback=True)
        assert item_table_digest(session.matcher.integrated_table) == states[0][0]

    def test_rollback_on_a_damaged_store_block_serves_its_parent(self, chain_template, tmp_path):
        """A verified load checks blocks at first read, so a tip whose own block is
        damaged loads; rollback must check every block now and serve the parent."""
        clone, states = _clone(chain_template, tmp_path)
        tip = clone / "s.snap.d2"
        _flip_byte(tip, _segment_offset(tip, "store/block"))
        assert os.path.basename(deepest_intact(tip)) == "s.snap.d1"
        matcher = load_matcher(tip, allow_rollback=True)
        assert matcher._base["path"].endswith("s.snap.d1")
        assert item_table_digest(matcher.integrated_table) == states[1][0]
        assert embedding_store_digest(matcher._store) == states[1][1]
        matcher._store.take(np.arange(len(matcher._store)))  # every block intact
        session = MatchSession.load(tip, allow_rollback=True)
        assert item_table_digest(session.matcher.integrated_table) == states[1][0]
        session.close()

    def test_rollback_with_no_intact_ancestor_raises(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        for name in ("s.snap", "s.snap.d1", "s.snap.d2"):
            _flip_byte(clone / name, _segment_offset(clone / name, "table/"))
        assert deepest_intact(clone / "s.snap.d2") is None
        with pytest.raises(StoreError):
            load_matcher(clone / "s.snap.d2", allow_rollback=True)


class TestGc:
    def test_retire_and_gc_collect_the_whole_chain(self, chain_template, tmp_path):
        clone, states = _clone(chain_template, tmp_path)
        compact_session(clone / "s.snap.d2", clone / "c.snap", retire=True)
        marker = retirement_marker_path(clone / "c.snap")
        assert os.path.exists(marker)
        dry = gc_store(clone, dry_run=True)
        assert sorted(dry.removed) == ["s.snap", "s.snap.d1", "s.snap.d2"]
        assert sorted(os.listdir(clone)) == [
            "c.snap", "c.snap.retired.json", "s.snap", "s.snap.d1", "s.snap.d2",
        ], "dry run must not delete"
        report = gc_store(clone)
        assert sorted(report.removed) == ["s.snap", "s.snap.d1", "s.snap.d2"]
        assert report.markers_cleared == ["c.snap.retired.json"]
        assert sorted(os.listdir(clone)) == ["c.snap"]
        matcher = load_matcher(clone / "c.snap")
        assert item_table_digest(matcher.integrated_table) == states[2][0]

    def test_gc_closes_every_marker_it_reads(self, chain_template, tmp_path, monkeypatch):
        """A leaked file object warns when it is finalized; gc must leak none."""
        clone, _ = _clone(chain_template, tmp_path)
        compact_session(clone / "s.snap.d2", clone / "c.snap", retire=True)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            gc_store(clone, dry_run=True)
            report = gc_store(clone)
            gc.collect()
        assert report.markers_cleared == ["c.snap.retired.json"]
        assert [hook.exc_value for hook in unraisable] == []

    def test_gc_never_deletes_files_reachable_from_surviving_tips(
        self, chain_template, tmp_path, split
    ):
        """A sibling chain sharing the superseded base keeps the base alive."""
        _, _, t2 = split
        clone, _ = _clone(chain_template, tmp_path)
        # Sibling chain: load the *base*, fold a different table, save s.snap.e1.
        matcher = load_matcher(clone / "s.snap")
        matcher.add_table(t2)
        save_session_delta(matcher, clone / "s.snap.e1")
        matcher.close()
        compact_session(clone / "s.snap.d2", clone / "c.snap", retire=True)
        report = gc_store(clone)
        assert sorted(report.removed) == ["s.snap.d1", "s.snap.d2"]
        assert ("s.snap", "reachable from a surviving chain tip; kept") in report.kept
        assert not report.markers_cleared, "marker must survive while files remain"
        # The sibling tip still loads; a second gc pass changes nothing.
        load_matcher(clone / "s.snap.e1").close()
        assert gc_store(clone).removed == []

    def test_gc_refuses_marker_when_compacted_file_is_damaged(
        self, chain_template, tmp_path
    ):
        clone, _ = _clone(chain_template, tmp_path)
        compact_session(clone / "s.snap.d2", clone / "c.snap", retire=True)
        _flip_byte(clone / "c.snap", _segment_offset(clone / "c.snap", "table/"))
        report = gc_store(clone)
        assert report.removed == []
        assert any("not honoured" in reason for _, reason in report.kept)
        for name in ("s.snap", "s.snap.d1", "s.snap.d2"):
            assert os.path.exists(clone / name), "old chain must survive a bad compaction"

    @pytest.mark.parametrize("scheme", ["manifest", "legacy"])
    def test_a_damaged_store_block_in_a_compacted_file_keeps_the_chain(
        self, chain_template, tmp_path, capsys, scheme
    ):
        """The payload digest proves the manifest alone: gc must check every byte."""
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        compact_session(clone / "s.snap.d2", clone / "c.snap", retire=True)
        if scheme == "legacy":
            _as_written_before_the_manifest_payload(clone / "c.snap")
        assert fsck_store(clone).ok
        _flip_byte(clone / "c.snap", _segment_offset(clone / "c.snap", "store/block") + 5)
        assert main(["snapshot", "fsck", str(clone)]) == 1
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("c.snap "))
        assert "damaged" in row and "store/block" in row, row
        assert main(["snapshot", "gc", str(clone)]) == 0
        out = capsys.readouterr().out
        assert "keep    c.snap.retired.json  (not honoured: compacted file 'c.snap'" in out, out
        assert "remove" not in out
        for name in ("s.snap", "s.snap.d1", "s.snap.d2"):
            assert os.path.exists(clone / name), "old chain must survive a bad compaction"

    def test_retire_requires_same_directory(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        with pytest.raises(StoreError, match="own directory"):
            compact_session(clone / "s.snap.d2", elsewhere / "c.snap", retire=True)


# -------------------------------------------------------------- writer lock
class TestWriterLock:
    def test_foreign_live_lock_fails_fast(self, chain_template, tmp_path):
        clone, _ = _clone(chain_template, tmp_path)
        # pid 1 is alive and not ours: a legitimate foreign writer.
        (clone / ".lock").write_text(
            json.dumps({"pid": 1, "time": time.time(), "host": socket.gethostname()})
        )
        matcher = load_matcher(clone / "s.snap.d2")
        try:
            with pytest.raises(StoreLockedError, match="locked by pid 1"):
                save_session(matcher, clone / "other.snap")
        finally:
            matcher.close()
        assert not (clone / "other.snap").exists()

    def test_dead_pid_lock_is_taken_over(self, tmp_path):
        probe = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True)
        dead_pid = int(probe.stdout)
        (tmp_path / ".lock").write_text(
            json.dumps({"pid": dead_pid, "time": time.time(), "host": socket.gethostname()})
        )
        with StoreLock(tmp_path):
            holder = json.loads((tmp_path / ".lock").read_text())
            assert holder["pid"] == os.getpid()
        assert not (tmp_path / ".lock").exists()

    def test_stale_by_age_lock_is_taken_over(self, tmp_path):
        (tmp_path / ".lock").write_text(
            json.dumps({"pid": 1, "time": time.time() - 7200.0, "host": socket.gethostname()})
        )
        with StoreLock(tmp_path, stale_after=1800.0):
            assert json.loads((tmp_path / ".lock").read_text())["pid"] == os.getpid()

    def test_lock_is_reentrant_within_the_process(self, tmp_path):
        with StoreLock(tmp_path):
            with StoreLock(tmp_path):  # compact -> save nesting
                assert (tmp_path / ".lock").exists()
            assert (tmp_path / ".lock").exists(), "inner exit must not drop the lock"
        assert not (tmp_path / ".lock").exists()

    def test_acquisition_sweeps_all_partials(self, tmp_path):
        (tmp_path / f"x.snap.tmp.{os.getpid()}").write_bytes(b"torn")
        (tmp_path / "y.snap.tmp.999999999").write_bytes(b"torn")
        with StoreLock(tmp_path):
            assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_readside_sweep_spares_live_writers(self, tmp_path):
        ours = tmp_path / f"x.snap.tmp.{os.getpid()}"
        ours.write_bytes(b"in-flight")
        dead = tmp_path / "y.snap.tmp.999999999"
        dead.write_bytes(b"stale")
        removed = sweep_partials(tmp_path)
        assert [os.path.basename(p) for p in removed] == ["y.snap.tmp.999999999"]
        assert ours.exists(), "a live writer's temp must never be swept from the read path"


# --------------------------------------------------------------------- CLI
class TestCli:
    def test_inspect_exit_codes_and_status_table(self, chain_template, tmp_path, capsys):
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        assert main(["snapshot", "inspect", str(clone / "s.snap.d1")]) == 0
        assert "verification: ok" in capsys.readouterr().out
        _flip_byte(clone / "s.snap.d1", _segment_offset(clone / "s.snap.d1", "table/"))
        assert main(["snapshot", "inspect", str(clone / "s.snap.d1")]) == 1
        out = capsys.readouterr().out
        assert "verification: FAILED" in out and "'table' bundle is corrupted" in out
        # Damage to the *parent* shows as a broken chain link from the child.
        second = tmp_path / "second"
        second.mkdir()
        clone2, _ = _clone(chain_template, second)
        _flip_byte(clone2 / "s.snap", _segment_offset(clone2 / "s.snap", "store/"))
        assert main(["snapshot", "inspect", str(clone2 / "s.snap.d1")]) == 1
        assert "link broken" in capsys.readouterr().out

    @_HEADER_DAMAGE
    def test_inspect_reports_header_damage_in_one_line(
        self, chain_template, tmp_path, capsys, mutate, expected
    ):
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        mutate(clone / "s.snap")
        assert main(["snapshot", "inspect", str(clone / "s.snap")]) != 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and expected in err, err

    @pytest.mark.parametrize(
        "delta, expected",
        [(None, "chain link without a delta spec"), ({"arrays": {}}, "chain depth 5")],
        ids=["no-delta-spec", "delta-spec"],
    )
    def test_inspect_agrees_with_fsck_on_a_malformed_link(
        self, chain_template, tmp_path, capsys, delta, expected
    ):
        """A hand-written link to an intact parent, at the wrong depth."""
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        with Snapshot.open(clone / "s.snap") as parent:
            parent_payload = parent.payload_digest()
        writer = SnapshotWriter()
        writer.add_array("x", np.arange(4, dtype=np.int64))
        writer.set_chain({"parent": "s.snap", "parent_payload": parent_payload, "depth": 5})
        writer.set_delta(delta)
        writer.save(clone / "bad.snap.d5")
        assert main(["snapshot", "inspect", str(clone / "bad.snap.d5")]) == 1
        out = capsys.readouterr().out
        assert "verification: FAILED" in out and expected in out
        status = {s.name: s for s in fsck_store(clone).files}["bad.snap.d5"]
        assert status.status == "damaged" and expected in status.detail

    def test_fsck_verb(self, chain_template, tmp_path, capsys):
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        assert main(["snapshot", "fsck", str(clone)]) == 0
        assert "store is consistent" in capsys.readouterr().out
        _flip_byte(clone / "s.snap.d2", _segment_offset(clone / "s.snap.d2", "table/"))
        assert main(["snapshot", "fsck", str(clone)]) == 1
        capsys.readouterr()
        assert main(["snapshot", "fsck", str(clone), "--repair"]) == 0
        assert "quarantined 1 file(s)" in capsys.readouterr().out
        assert main(["snapshot", "fsck", str(clone)]) == 0

    def test_compact_retire_gc_verbs(self, chain_template, tmp_path, capsys):
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        code = main([
            "snapshot", "compact", str(clone / "s.snap.d2"),
            "--output", str(clone / "c.snap"), "--retire",
        ])
        assert code == 0
        assert "retirement marker written" in capsys.readouterr().out
        assert main(["snapshot", "gc", str(clone), "--dry-run"]) == 0
        assert "remove  s.snap" in capsys.readouterr().out
        assert (clone / "s.snap").exists()
        assert main(["snapshot", "gc", str(clone)]) == 0
        assert sorted(os.listdir(clone)) == ["c.snap"]

    def test_load_allow_rollback_flag(self, chain_template, tmp_path, capsys):
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        tip = clone / "s.snap.d2"
        _flip_byte(tip, _segment_offset(tip, "table/"))
        assert main(["snapshot", "load", str(tip)]) == 2  # ReproError path
        capsys.readouterr()
        assert main(["snapshot", "load", str(tip), "--allow-rollback"]) == 0
        out = capsys.readouterr().out
        assert "rolled back to intact ancestor" in out and "s.snap.d1" in out

    def test_load_reports_a_damaged_store_block(self, chain_template, tmp_path, capsys):
        """``snapshot load`` prints every digest "(verified)": it checks every store
        block, which a verified load defers to first read."""
        from repro.cli import main

        clone, _ = _clone(chain_template, tmp_path)
        tip = clone / "s.snap.d2"
        _flip_byte(tip, _segment_offset(tip, "store/block"))
        assert main(["snapshot", "load", str(tip)]) == 2
        assert "store/block" in capsys.readouterr().err
        assert main(["snapshot", "load", str(tip), "--allow-rollback"]) == 0
        out = capsys.readouterr().out
        assert "rolled back to intact ancestor" in out and "s.snap.d1" in out


def test_atomic_writes_lint_is_clean():
    """The satellite lint: no bare writes inside src/repro/store/."""
    script = os.path.join(os.path.dirname(SRC), "scripts", "check_atomic_writes.py")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
