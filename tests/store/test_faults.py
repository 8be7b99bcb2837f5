"""Crash-point matrix: every injected crash in save/append/compact is recoverable.

The contract under test (the durability half of the robustness PR): a save
that dies at *any* write/fsync/replace boundary leaves the previous
consistent state loadable byte-for-byte — the target file is either the old
bytes or the new bytes, never torn; the only residue is a ``*.tmp.<pid>``
partial that the next fsck (or writer-lock acquisition) sweeps. Crash points
are enumerated with an observer :class:`~repro.faults.FaultPlan`, so the
matrix tracks the layout automatically instead of hard-coding boundary
indices.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import faults
from repro.config import ParallelConfig, paper_default_config
from repro.core import incremental
from repro.core.incremental import IncrementalMultiEM
from repro.core.parallel import ParallelExecutor
from repro.exceptions import StoreError
from repro.store import Snapshot, fsck_store, load_matcher, save_session
from repro.store.codecs import embedding_store_digest, item_table_digest
from repro.store.session import compact_session, save_session_delta

pytestmark = pytest.mark.faults

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _partials(directory) -> list[str]:
    return [n for n in os.listdir(directory) if ".tmp." in n]


def _state_digests(matcher):
    return (
        item_table_digest(matcher.integrated_table),
        embedding_store_digest(matcher._store),
    )


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-2], name=music_tiny.name)
    return base, music_tiny.tables[names[-2]], music_tiny.tables[names[-1]]


@pytest.fixture(scope="module", params=[False, True], ids=["serial", "threaded"])
def fitted(split, request):
    """One fitted matcher reused by every crash scenario (saves are pure).

    Built once per executor setting: a save hashes on the matcher's pool, so
    every crash matrix runs with a serial and with a 2-thread executor. The
    executor class is patched in the matcher module, so compaction's restored
    matcher gets the same setting while every manifest byte stays the same.
    """
    base, t1, _ = split

    def make(_config) -> ParallelExecutor:
        return ParallelExecutor(ParallelConfig(enabled=request.param, max_workers=2))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "ParallelExecutor", make)
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        yield matcher
        matcher.close()


def _crash_boundaries(probe_counters: dict) -> list[faults.FaultPlan]:
    """One crashing plan per counted boundary of the probed operation."""
    plans = []
    for boundary in range(1, probe_counters.get("write", 0) + 1):
        plans.append(faults.FaultPlan(crash_write=boundary))
        plans.append(faults.FaultPlan(crash_write=boundary, torn_fraction=0.0))
    for boundary in range(1, probe_counters.get("fsync", 0) + 1):
        plans.append(faults.FaultPlan(crash_fsync=boundary))
    return plans


class TestSaveCrashMatrix:
    def test_every_crash_point_preserves_previous_snapshot(self, fitted, tmp_path):
        target = tmp_path / "s.snap"
        with faults.inject(faults.FaultPlan()) as probe:
            save_session(fitted, target)
        assert probe.counters["write"] > 2 and probe.counters["replace"] == 1
        reference = target.read_bytes()
        want = _state_digests(fitted)
        plans = _crash_boundaries(probe.counters)
        assert len(plans) > 6, "observer found no boundaries to crash"
        for plan in plans:
            with faults.inject(plan):
                with pytest.raises(faults.InjectedCrash):
                    save_session(fitted, target)
            assert target.read_bytes() == reference, f"{plan} tore the published file"
            assert _partials(tmp_path), f"{plan} should leave a partial behind"
            report = fsck_store(tmp_path)
            assert report.ok and not _partials(tmp_path)
            matcher = load_matcher(target)
            assert _state_digests(matcher) == want

    def test_failed_replace_is_an_ordinary_error(self, fitted, tmp_path):
        target = tmp_path / "s.snap"
        save_session(fitted, target)
        reference = target.read_bytes()
        with faults.inject(faults.FaultPlan(fail_replace=1)):
            with pytest.raises(faults.InjectedFault) as excinfo:
                save_session(fitted, target)
        assert not isinstance(excinfo.value, faults.InjectedCrash)
        # An error returned to the caller (unlike a crash) runs cleanup.
        assert not _partials(tmp_path)
        assert target.read_bytes() == reference

    def test_crash_on_first_ever_save_leaves_no_snapshot(self, fitted, tmp_path):
        with faults.inject(faults.FaultPlan(crash_write=1)):
            with pytest.raises(faults.InjectedCrash):
                save_session(fitted, tmp_path / "s.snap")
        assert not (tmp_path / "s.snap").exists()
        report = fsck_store(tmp_path)
        assert report.ok and os.listdir(tmp_path) == []


class TestAppendCompactCrashMatrix:
    @pytest.fixture(scope="class")
    def chain_dir(self, split, fitted, tmp_path_factory):
        """base save + one added table, delta NOT yet saved (each test saves it)."""
        _, t1, _ = split
        directory = tmp_path_factory.mktemp("faultchain")
        save_session(fitted, directory / "s.snap")
        fitted.add_table(t1)
        return directory

    def test_append_crash_matrix(self, fitted, chain_dir):
        # A successful delta save re-bases the matcher onto the new tip; pin
        # the base record so every attempt diffs against s.snap like the probe.
        base_record = fitted._base
        with faults.inject(faults.FaultPlan()) as probe:
            save_session_delta(fitted, chain_dir / "probe.d1")
        reference = (chain_dir / "probe.d1").read_bytes()
        base_bytes = (chain_dir / "s.snap").read_bytes()
        for plan in _crash_boundaries(probe.counters):
            fitted._base = base_record
            with faults.inject(plan):
                with pytest.raises(faults.InjectedCrash):
                    save_session_delta(fitted, chain_dir / "crash.d1")
            assert not (chain_dir / "crash.d1").exists()
            assert (chain_dir / "s.snap").read_bytes() == base_bytes
            assert _partials(chain_dir)
            assert fsck_store(chain_dir).ok and not _partials(chain_dir)
        # After every crash, the same append still lands byte-identically.
        fitted._base = base_record
        save_session_delta(fitted, chain_dir / "crash.d1")
        assert (chain_dir / "crash.d1").read_bytes() == reference

    def test_compact_crash_matrix(self, chain_dir):
        with faults.inject(faults.FaultPlan()) as probe:
            compact_session(chain_dir / "probe.d1", chain_dir / "probe.compact")
        reference = (chain_dir / "probe.compact").read_bytes()
        chain_files = {
            name: (chain_dir / name).read_bytes() for name in ("s.snap", "probe.d1")
        }
        for plan in _crash_boundaries(probe.counters):
            with faults.inject(plan):
                with pytest.raises(faults.InjectedCrash):
                    compact_session(chain_dir / "probe.d1", chain_dir / "crash.compact")
            assert not (chain_dir / "crash.compact").exists()
            for name, want in chain_files.items():
                assert (chain_dir / name).read_bytes() == want, f"{plan} touched {name}"
            assert fsck_store(chain_dir).ok
        compact_session(chain_dir / "probe.d1", chain_dir / "crash.compact")
        assert (chain_dir / "crash.compact").read_bytes() == reference


class TestReadCorruption:
    def test_flipped_bit_in_segment_fails_load(self, fitted, tmp_path):
        target = tmp_path / "s.snap"
        save_session(fitted, target)
        with Snapshot.open(target) as snapshot:
            name = next(n for n in snapshot.names() if "alias_of" not in snapshot.entry(n))
            offset = snapshot.entry(name)["offset"]
        plan = faults.FaultPlan(flip_read=1, flip_offset=offset)
        with faults.inject(plan):
            with pytest.raises(StoreError) as excinfo:
                load_matcher(target)
        message = str(excinfo.value)
        assert "digest" in message and "corrupted" in message
        # The file itself is pristine — the fault was on the read path only.
        matcher = load_matcher(target)
        assert matcher is not None

    def test_flip_is_deterministic_per_seed(self, fitted, tmp_path):
        target = tmp_path / "s.snap"
        save_session(fitted, target)
        data = target.read_bytes()
        for seed in (0, 7):
            flips = []
            for _ in range(2):
                with faults.inject(faults.FaultPlan(seed=seed, flip_read=1)):
                    flips.append(faults.read_bytes(str(target)))
            assert flips[0] == flips[1] and flips[0] != data


@pytest.mark.smoke
class TestFaultPlumbing:
    """Cheap plumbing checks: also the tier-1 smoke leg of the faults marker."""

    def test_observer_plan_counts_without_firing(self, tmp_path):
        from repro.store.format import atomic_output

        with faults.inject(faults.FaultPlan()) as plan:
            with atomic_output(tmp_path / "x.bin") as handle:
                handle.write(b"abc")
                handle.write(b"")  # alignment-style empty write: not a boundary
                handle.write(b"def")
        assert (tmp_path / "x.bin").read_bytes() == b"abcdef"
        assert plan.counters["write"] == 2
        assert plan.counters["fsync"] == 1
        assert plan.counters["replace"] == 1
        assert plan.counters["fsync_dir"] == 1

    def test_no_plan_is_pure_passthrough(self, tmp_path):
        from repro.store.format import atomic_output

        assert faults.active() is None
        with atomic_output(tmp_path / "x.bin") as handle:
            handle.write(b"payload")
        assert (tmp_path / "x.bin").read_bytes() == b"payload"

    def test_drop_fsync_changes_nothing_without_a_power_cut(self, tmp_path):
        from repro.store.format import atomic_output

        with faults.inject(faults.FaultPlan(drop_fsync=True)):
            with atomic_output(tmp_path / "x.bin") as handle:
                handle.write(b"payload")
        assert (tmp_path / "x.bin").read_bytes() == b"payload"

    def test_spec_round_trip(self):
        plan = faults.plan_from_spec("crash_write=3,torn=0.25,worker=kill,worker_task=2")
        assert plan.crash_write == 3 and plan.torn_fraction == 0.25
        assert plan.worker_fault == "kill" and plan.worker_fault_task == 2
        with pytest.raises(faults.InjectedFault):
            faults.plan_from_spec("crash_wirte=3")
        for rejected in ("worker=explode", "worker=hang", "hang_seconds=1"):
            with pytest.raises(faults.InjectedFault):
                faults.plan_from_spec(rejected)

    def test_worker_fault_claims_are_one_shot(self):
        with faults.inject(faults.FaultPlan(worker_fault="kill", worker_fault_task=1)):
            assert faults.claim_worker_fault(0) is None
            assert faults.claim_worker_fault(1) == {"kind": "kill"}
            assert faults.claim_worker_fault(1) is None, "claim must be one-shot"
        with faults.inject(
            faults.FaultPlan(worker_fault="kill", worker_fault_task=0, worker_fault_repeat=True)
        ):
            assert faults.claim_worker_fault(0) is not None
            assert faults.claim_worker_fault(0) is not None


def test_env_spec_activates_in_a_fresh_process(tmp_path):
    """REPRO_FAULTS drives whole-process chaos runs, not just inject() blocks."""
    script = (
        "import numpy as np\n"
        "from repro.store.format import SnapshotWriter\n"
        "writer = SnapshotWriter()\n"
        "writer.add_array('x', np.arange(64, dtype=np.int64))\n"
        f"writer.save({str(tmp_path / 'env.snap')!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_FAULTS="crash_write=1,torn=0.5")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "InjectedCrash" in proc.stderr
    assert not (tmp_path / "env.snap").exists()
    assert _partials(tmp_path), "the simulated crash must leave its partial behind"
    assert fsck_store(tmp_path).ok and not _partials(tmp_path)
