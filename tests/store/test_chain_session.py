"""Delta-chain sessions: save → append×k → load/compact pinned byte-identical.

The contract under test: a chain of base + delta files reconstructs *exactly*
the state a single full snapshot would hold — same item-table and store
digests, same tuples from a subsequent ``add_table``, and a compaction whose
file bytes equal a direct full save.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.exceptions import StoreError
from repro.store import MatchSession, Snapshot, SnapshotChain, load_matcher, save_session
from repro.store.codecs import embedding_store_digest, item_table_digest
from repro.store.session import compact_session, save_session_delta

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


@pytest.fixture(scope="module")
def split(music_tiny):
    names = sorted(music_tiny.tables)
    base = music_tiny.subset(names[:-2], name=music_tiny.name)
    return base, music_tiny.tables[names[-2]], music_tiny.tables[names[-1]]


@pytest.fixture(scope="module")
def reference(split):
    """The in-memory run every chain reconstruction must reproduce."""
    base, t1, t2 = split
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    matcher.fit(base)
    states = [(item_table_digest(matcher.integrated_table), embedding_store_digest(matcher._store))]
    tuples = []
    for table in (t1, t2):
        tuples.append(matcher.add_table(table).tuples)
        states.append(
            (item_table_digest(matcher.integrated_table), embedding_store_digest(matcher._store))
        )
    return {"matcher": matcher, "states": states, "tuples": tuples}


@pytest.fixture(scope="module")
def chain_dir(split, tmp_path_factory):
    """fit → save → add → append → add → append, one file per step."""
    base, t1, t2 = split
    directory = tmp_path_factory.mktemp("chain")
    matcher = IncrementalMultiEM(paper_default_config(base.name))
    matcher.fit(base)
    matcher.save(directory / "s.snap")
    matcher.add_table(t1)
    matcher.save(directory / "s.snap.d1")
    matcher.add_table(t2)
    matcher.save(directory / "s.snap.d2")
    matcher.close()
    return directory


class TestChainFiles:
    def test_appends_are_chain_deltas(self, chain_dir):
        with Snapshot.open(chain_dir / "s.snap") as base:
            assert base.chain is None and base.delta is None
            assert base.format_version == 2
        for depth in (1, 2):
            with Snapshot.open(chain_dir / f"s.snap.d{depth}") as delta:
                assert delta.chain["depth"] == depth
                assert delta.chain["parent"] == ("s.snap" if depth == 1 else "s.snap.d1")
                assert delta.delta is not None

    def test_deltas_write_far_less_than_full_state(self, chain_dir, reference):
        tip_full = chain_dir / "tip_full.snap"
        save_session(reference["matcher"], tip_full)
        full_bytes = os.path.getsize(tip_full)
        for depth in (1, 2):
            assert os.path.getsize(chain_dir / f"s.snap.d{depth}") < 0.5 * full_bytes

    def test_verify_links_passes_on_intact_chain(self, chain_dir):
        with SnapshotChain.open(chain_dir / "s.snap.d2") as chain:
            assert chain.depth == 2
            assert [os.path.basename(p) for p in chain.paths] == [
                "s.snap", "s.snap.d1", "s.snap.d2",
            ]
            chain.verify_links()


class TestChainEquivalence:
    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_load_at_every_depth_is_byte_identical(self, chain_dir, reference, mmap, depth):
        path = chain_dir / ("s.snap" if depth == 0 else f"s.snap.d{depth}")
        matcher = load_matcher(path, mmap=mmap)
        want_table, want_store = reference["states"][depth]
        assert item_table_digest(matcher.integrated_table) == want_table
        assert embedding_store_digest(matcher._store) == want_store

    def test_add_table_after_chain_load_reproduces_tuples(self, chain_dir, split, reference):
        _, _, t2 = split
        with MatchSession.load(chain_dir / "s.snap.d1") as session:
            result = session.matcher.add_table(t2)
            assert {frozenset(t) for t in result.tuples} == {
                frozenset(t) for t in reference["tuples"][1]
            }
            assert (
                item_table_digest(session.matcher.integrated_table)
                == reference["states"][2][0]
            )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_compact_equals_direct_full_save_byte_for_byte(
        self, chain_dir, reference, tmp_path, mmap
    ):
        direct = tmp_path / "direct.snap"
        save_session(reference["matcher"], direct)
        compacted = tmp_path / f"compacted-{mmap}.snap"
        compact_session(chain_dir / "s.snap.d2", compacted, mmap=mmap)
        assert compacted.read_bytes() == direct.read_bytes()

    def test_compacted_file_is_a_self_contained_base(self, chain_dir, tmp_path):
        compacted = tmp_path / "c.snap"
        compact_session(chain_dir / "s.snap.d2", compacted)
        with Snapshot.open(compacted) as snap:
            assert snap.chain is None and snap.delta is None
            assert not [name for name in snap.names() if name.startswith("cache/")]

    def test_compacted_chain_loads_like_the_chain(self, chain_dir, reference, tmp_path):
        compacted = tmp_path / "c2.snap"
        compact_session(chain_dir / "s.snap.d2", compacted)
        matcher = load_matcher(compacted)
        assert item_table_digest(matcher.integrated_table) == reference["states"][2][0]

    @pytest.mark.parametrize("native", ["1", "0"])
    def test_cold_process_chain_load(self, chain_dir, reference, native):
        """A fresh interpreter resolves the chain to the same byte-pinned state."""
        snippet = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {SRC!r})
            from repro.store import load_matcher
            from repro.store.codecs import embedding_store_digest, item_table_digest
            matcher = load_matcher({str(chain_dir / "s.snap.d2")!r})
            print("TABLE", item_table_digest(matcher.integrated_table))
            print("STORE", embedding_store_digest(matcher._store))
            """
        )
        env = dict(os.environ, REPRO_NATIVE=native)
        completed = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        lines = dict(line.split(" ", 1) for line in completed.stdout.splitlines())
        assert lines["TABLE"] == reference["states"][2][0]
        assert lines["STORE"] == reference["states"][2][1]


class TestChainSafety:
    def test_modified_parent_is_detected(self, chain_dir, tmp_path):
        """Corrupting a mid-chain file breaks the recorded link digest."""
        import shutil

        for name in ("s.snap", "s.snap.d1", "s.snap.d2"):
            shutil.copy(chain_dir / name, tmp_path / name)
        data = bytearray((tmp_path / "s.snap.d1").read_bytes())
        data[80] ^= 0xFF  # flip one payload byte in the middle segment
        (tmp_path / "s.snap.d1").write_bytes(bytes(data))
        with pytest.raises(StoreError, match="chain link broken|digests do not match"):
            load_matcher(tmp_path / "s.snap.d2")

    def test_missing_parent_is_reported(self, chain_dir, tmp_path):
        import shutil

        shutil.copy(chain_dir / "s.snap.d2", tmp_path / "s.snap.d2")
        with pytest.raises(StoreError, match="missing parent"):
            load_matcher(tmp_path / "s.snap.d2")

    def test_delta_save_requires_a_base(self, split, tmp_path):
        base, _, _ = split
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        with pytest.raises(StoreError, match="no base snapshot"):
            matcher.save(tmp_path / "x.snap", mode="delta")
        with pytest.raises(StoreError, match="unknown save mode"):
            matcher.save(tmp_path / "x.snap", mode="sideways")
        matcher.close()

    def test_auto_save_onto_base_path_stays_full(self, split, tmp_path):
        """Overwriting the base in place must not self-parent a delta."""
        base, t1, _ = split
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        path = tmp_path / "s.snap"
        matcher.save(path)
        matcher.add_table(t1)
        matcher.save(path)  # auto mode, same path
        with Snapshot.open(path) as snap:
            assert snap.chain is None and snap.delta is None
        matcher.close()

    def test_delta_must_live_next_to_its_base(self, split, tmp_path):
        base, t1, _ = split
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        matcher.save(tmp_path / "s.snap")
        matcher.add_table(t1)
        elsewhere = tmp_path / "sub"
        elsewhere.mkdir()
        with pytest.raises(StoreError, match="next to its base"):
            save_session_delta(matcher, elsewhere / "s.snap.d1")
        with pytest.raises(StoreError, match="cannot overwrite its own base"):
            save_session_delta(matcher, tmp_path / "s.snap")
        matcher.close()

    def test_compact_refuses_live_chain_members(self, chain_dir):
        with pytest.raises(StoreError, match="live chain member"):
            compact_session(chain_dir / "s.snap.d2", chain_dir / "s.snap")

    def test_refit_resets_the_snapshot_lineage(self, split, tmp_path):
        base, _, _ = split
        matcher = IncrementalMultiEM(paper_default_config(base.name))
        matcher.fit(base)
        matcher.save(tmp_path / "a.snap")
        assert matcher._base is not None
        matcher.fit(base)
        assert matcher._base is None
        matcher.close()
