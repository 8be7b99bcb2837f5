"""Tests for incremental matching and the CLI."""

import json

import pytest

from repro import MultiEM, evaluate, paper_default_config
from repro.cli import main as cli_main
from repro.core.incremental import IncrementalMultiEM
from repro.core.representation import EntityRepresenter
from repro.data import Table
from repro.exceptions import DataError, SchemaError


class TestIncrementalMultiEM:
    def test_fit_then_add_matches_batch_quality(self, music_tiny):
        config = paper_default_config("music-20")
        table_names = sorted(music_tiny.tables)
        initial = music_tiny.subset(table_names[:-1], name="initial")
        matcher = IncrementalMultiEM(config)
        matcher.fit(initial)
        result = matcher.add_table(music_tiny.tables[table_names[-1]])
        report = evaluate(result, music_tiny)
        batch_report = evaluate(MultiEM(config).match(music_tiny), music_tiny)
        # Incremental merging is a single extra merge level; it should stay in
        # the same quality ballpark as the full batch run.
        assert report.pair_f1 > batch_report.pair_f1 - 15
        assert set(matcher.known_sources) == set(table_names)

    def test_add_table_requires_fit(self, music_tiny):
        matcher = IncrementalMultiEM()
        with pytest.raises(DataError):
            matcher.add_table(music_tiny.table_list()[0])

    def test_add_table_schema_checked(self, music_tiny):
        matcher = IncrementalMultiEM(paper_default_config("music-20"))
        matcher.fit(music_tiny.subset(sorted(music_tiny.tables)[:2]))
        with pytest.raises(SchemaError):
            matcher.add_table(Table("new", ("only",), [("x",)]))

    def test_add_same_source_twice_rejected(self, music_tiny):
        matcher = IncrementalMultiEM(paper_default_config("music-20"))
        names = sorted(music_tiny.tables)
        matcher.fit(music_tiny.subset(names[:2]))
        with pytest.raises(DataError):
            matcher.add_table(music_tiny.tables[names[0]])

    def test_failed_refit_keeps_the_previous_fit(self, music_tiny, tmp_path, monkeypatch):
        """A refit that dies in merging leaves no mix of new encoder and old table."""
        import repro.core.merging as merging_module
        from repro.store.codecs import embedding_store_digest, item_table_digest

        def state(matcher):
            return (
                matcher.known_sources,
                item_table_digest(matcher.integrated_table),
                embedding_store_digest(matcher._store),
            )

        names = sorted(music_tiny.tables)
        with IncrementalMultiEM(paper_default_config("music-20")) as matcher:
            matcher.fit(music_tiny.subset(names[:3]))
            matcher.save(tmp_path / "fit.snap")
            before, representer, base = state(matcher), matcher._representer, matcher._base
            assert base is not None

            def out_of_memory(*args, **kwargs):
                raise MemoryError("injected")

            monkeypatch.setattr(merging_module, "_merge_wave", out_of_memory)
            with pytest.raises(MemoryError, match="injected"):
                matcher.fit(music_tiny)
            assert state(matcher) == before
            assert matcher._representer is representer
            assert matcher._base is base


@pytest.mark.parametrize("parallel", (False, True))
@pytest.mark.parametrize(
    "fixture, name, num_tuples",
    [("geo_tiny", "geo", 31), ("music_tiny", "music-20", 57), ("shopee_tiny", "shopee", 69)],
)
def test_fit_predicts_what_match_does(request, fixture, name, num_tuples, parallel):
    """``IncrementalMultiEM.fit`` and ``MultiEM.match`` run one pipeline body."""
    dataset = request.getfixturevalue(fixture)
    config = paper_default_config(name, parallel=parallel)
    with IncrementalMultiEM(config) as matcher:
        fitted = matcher.fit(dataset).tuples
    assert len(fitted) == num_tuples
    assert fitted == MultiEM(config).match(dataset).tuples


class TestCLI:
    def test_generate_match_evaluate_roundtrip(self, tmp_path, capsys):
        dataset_dir = tmp_path / "geo"
        assert cli_main(["generate", "geo", "--profile", "tiny", "--output", str(dataset_dir)]) == 0
        predictions = tmp_path / "pred.json"
        assert cli_main(["match", str(dataset_dir), "--output", str(predictions)]) == 0
        assert predictions.exists()
        payload = json.loads(predictions.read_text())
        assert payload and all(len(group) >= 2 for group in payload)
        assert cli_main(["evaluate", str(dataset_dir), str(predictions)]) == 0
        output = capsys.readouterr().out
        assert "F1" in output

    def test_match_benchmark_by_name(self, capsys):
        assert cli_main(["match", "geo", "--profile", "tiny"]) == 0
        assert "tuple F1" in capsys.readouterr().out

    def test_report_table7(self, capsys):
        assert cli_main(["report", "table7", "--datasets", "geo", "--profile", "tiny"]) == 0
        assert "name" in capsys.readouterr().out

    def test_unknown_dataset_returns_error_code(self):
        assert cli_main(["match", "/does/not/exist"]) == 2
