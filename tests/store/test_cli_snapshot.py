"""CLI snapshot save / load / serve-match, end to end on a generator dataset."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.cli import main as cli_main
from repro.store import Snapshot

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli") / "music20"
    assert cli_main(["generate", "music-20", "--profile", "tiny", "--output", str(directory)]) == 0
    return directory


class TestSnapshotCli:
    def test_save_load_serve_roundtrip(self, dataset_dir, tmp_path, capsys):
        snapshot = tmp_path / "fit.snap"
        assert (
            cli_main(
                [
                    "snapshot", "save", str(dataset_dir),
                    "--exclude", "source_E", "--output", str(snapshot),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "snapshot written to" in out
        assert "item-table digest" in out
        assert snapshot.exists()

        assert cli_main(["snapshot", "load", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "(verified)" in out
        assert "source_E" not in out  # excluded table is not part of the fit
        assert "mmap (zero-copy)" in out

        predictions = tmp_path / "preds.json"
        assert (
            cli_main(
                [
                    "serve-match", str(snapshot), str(dataset_dir),
                    "--table", "source_E", "--output", str(predictions),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "predicted tuples" in out
        assert "tuple F1" in out
        groups = json.loads(predictions.read_text())
        assert groups and all(len(group) >= 2 for group in groups)
        assert any(any(source == "source_E" for source, _ in group) for group in groups)

    def test_load_copy_mode(self, dataset_dir, tmp_path, capsys):
        snapshot = tmp_path / "all.snap"
        assert cli_main(["snapshot", "save", str(dataset_dir), "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert cli_main(["snapshot", "load", str(snapshot), "--copy"]) == 0
        assert "copy" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["fresh", "seed-tip"])
    def test_load_prints_the_digests_the_manifest_records(
        self, dataset_dir, tmp_path, capsys, source
    ):
        """The printed digests are the recorded ones the load verified, under either scheme."""
        if source == "fresh":
            snapshot = tmp_path / "all.snap"
            assert cli_main(["snapshot", "save", str(dataset_dir), "--output", str(snapshot)]) == 0
        else:  # written before per-block store digests, one delta on its base
            for name in ("seed-base.snap", "seed-tip.snap"):
                shutil.copy(os.path.join(DATA, name), tmp_path / name)
            snapshot = tmp_path / "seed-tip.snap"
        capsys.readouterr()
        assert cli_main(["snapshot", "load", str(snapshot)]) == 0
        out = capsys.readouterr().out
        with Snapshot.open(snapshot) as opened:
            recorded = opened.meta["digests"]
        assert f"item-table digest:      {recorded['item_table']} (verified)" in out
        assert f"embedding-store digest: {recorded['embedding_store']} (verified)" in out

    def test_serve_match_rejects_known_source(self, dataset_dir, tmp_path, capsys):
        snapshot = tmp_path / "all.snap"
        assert cli_main(["snapshot", "save", str(dataset_dir), "--output", str(snapshot)]) == 0
        capsys.readouterr()
        assert (
            cli_main(["serve-match", str(snapshot), str(dataset_dir), "--table", "source_A"]) == 2
        )
        assert "already part of the snapshot" in capsys.readouterr().err

    def test_save_rejects_unknown_exclude(self, dataset_dir, tmp_path, capsys):
        assert (
            cli_main(
                [
                    "snapshot", "save", str(dataset_dir),
                    "--exclude", "nope", "--output", str(tmp_path / "x.snap"),
                ]
            )
            == 2
        )
        assert "unknown tables" in capsys.readouterr().err


class TestChainCli:
    @pytest.fixture(scope="class")
    def chain(self, dataset_dir, tmp_path_factory):
        """save (minus two tables) → append → append: a depth-2 chain."""
        directory = tmp_path_factory.mktemp("chaincli")
        snapshot = directory / "fit.snap"
        assert (
            cli_main(
                [
                    "snapshot", "save", str(dataset_dir),
                    "--exclude", "source_D", "--exclude", "source_E",
                    "--output", str(snapshot),
                ]
            )
            == 0
        )
        for depth, table in enumerate(("source_D", "source_E"), start=1):
            tip = snapshot if depth == 1 else directory / f"fit.snap.d{depth - 1}"
            assert (
                cli_main(["snapshot", "append", str(tip), str(dataset_dir), "--table", table])
                == 0
            )
        return directory

    def test_append_writes_default_named_deltas(self, chain, capsys):
        capsys.readouterr()
        assert (chain / "fit.snap.d1").exists()
        assert (chain / "fit.snap.d2").exists()
        # each delta holds only changed state, far below the base
        base_size = (chain / "fit.snap").stat().st_size
        assert (chain / "fit.snap.d1").stat().st_size < base_size
        assert (chain / "fit.snap.d2").stat().st_size < base_size

    def test_append_explicit_output_and_messages(self, chain, dataset_dir, tmp_path, capsys):
        import shutil

        for name in ("fit.snap", "fit.snap.d1"):
            shutil.copy(chain / name, tmp_path / name)
        output = tmp_path / "fit.snap.d2"
        assert (
            cli_main(
                [
                    "snapshot", "append", str(tmp_path / "fit.snap.d1"), str(dataset_dir),
                    "--table", "source_E", "--output", str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "merged 'source_E'" in out
        assert f"delta written to {output}" in out
        assert "depth 2" in out
        assert output.read_bytes() == (chain / "fit.snap.d2").read_bytes()

    def test_append_rejects_known_source(self, chain, dataset_dir, capsys):
        assert (
            cli_main(
                [
                    "snapshot", "append", str(chain / "fit.snap.d2"), str(dataset_dir),
                    "--table", "source_D",
                ]
            )
            == 2
        )
        assert "already part of the snapshot" in capsys.readouterr().err

    def test_load_reports_chain_shape(self, chain, capsys):
        assert cli_main(["snapshot", "load", str(chain / "fit.snap.d2")]) == 0
        out = capsys.readouterr().out
        assert "chain of 3 files (depth 2)" in out
        assert "(verified)" in out

    def test_inspect_base_and_delta(self, chain, capsys):
        assert cli_main(["snapshot", "inspect", str(chain / "fit.snap")]) == 0
        out = capsys.readouterr().out
        assert "format version 2" in out
        assert "chain: base snapshot (no parent)" in out
        assert "aliased" in out
        bundles = next(line for line in out.splitlines() if line.startswith("bundles: "))
        sizes = dict(part.rsplit(" ", 2)[:2] for part in bundles[len("bundles: "):].split(", "))
        assert list(sizes) == ["table", "store", "encoder"]
        assert all(int(size) > 0 for size in sizes.values())

        assert cli_main(["snapshot", "inspect", str(chain / "fit.snap.d1")]) == 0
        out = capsys.readouterr().out
        assert "chain: depth 1, parent fit.snap" in out
        assert "delta ops over" in out

    def test_compact_collapses_the_chain(self, chain, tmp_path, capsys):
        compacted = tmp_path / "compacted.snap"
        assert (
            cli_main(
                ["snapshot", "compact", str(chain / "fit.snap.d2"), "--output", str(compacted)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compacted chain of 3 files (depth 2)" in out
        assert compacted.exists()

        assert cli_main(["snapshot", "load", str(compacted)]) == 0
        out = capsys.readouterr().out
        assert "(verified)" in out
        assert "chain of" not in out  # compacted file is self-contained
