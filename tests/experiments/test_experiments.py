"""Tests for the experiment harness (runner, tables, figures, ablations)."""

import pytest

from repro.config import paper_default_config
from repro.core import MultiEM
from repro.data.generators import load_benchmark
from repro.experiments import (
    METHOD_REGISTRY,
    TABLE4_METHODS,
    TABLE5_METHODS,
    ablation_index_backend,
    ablation_mutual_vs_directed,
    ablation_pruning_strategy,
    ablation_representative,
    create_method,
    figure5_module_times,
    figure6_m,
    figure6_seed,
    run_experiment,
    run_matrix,
    table3_dataset_statistics,
    table4_effectiveness,
    table5_runtime,
    table6_memory,
    table7_selected_attributes,
)
from repro.experiments.ablations import _pipeline_with
from repro.exceptions import ConfigurationError


class TestMethodRegistry:
    def test_table_method_lists_are_registered(self):
        for name in TABLE4_METHODS + TABLE5_METHODS:
            assert name in METHOD_REGISTRY

    def test_create_method_unknown_name(self):
        with pytest.raises(ConfigurationError):
            create_method("SuperMatcher", "geo")

    def test_create_multiem_variants(self):
        multiem = create_method("MultiEM", "geo")
        ablation = create_method("MultiEM w/o DP", "geo")
        parallel = create_method("MultiEM (parallel)", "geo")
        assert multiem.config.pruning.enabled
        assert not ablation.config.pruning.enabled
        assert parallel.config.parallel.enabled


class TestRunner:
    def test_run_experiment_ok(self, geo_tiny):
        run = run_experiment("MultiEM", geo_tiny)
        assert run.status == "ok"
        assert run.report is not None and run.report.f1 > 0
        assert run.elapsed_seconds > 0
        assert run.peak_memory_bytes > 0
        assert run.effectiveness_row()["method"] == "MultiEM"
        assert run.runtime_row()["seconds"] is not None
        assert run.memory_row()["bytes"] is not None

    def test_run_experiment_unsupported(self, music_tiny):
        # MSCD-HAC's default limit is far below even the tiny music dataset?
        # It is not (tiny is small), so force the situation with a tiny limit
        # via the registry path: monkeypatching is avoided by using a dataset
        # the default limit does reject only at bench scale. Instead, check
        # the unsupported rendering contract directly.
        from repro.experiments.runner import ExperimentRun

        run = ExperimentRun(method="MSCD-HAC", dataset="music-200", status="unsupported", reason="too big")
        row = run.effectiveness_row()
        assert row["F1"] == "-"
        assert run.runtime_row()["time"] == "-"
        assert run.memory_row()["memory"] == "-"

    def test_run_matrix_covers_all_cells(self):
        runs = run_matrix(["MultiEM", "AutoFJ (pw)"], ["geo"], profile="tiny")
        assert len(runs) == 2
        assert {r.method for r in runs} == {"MultiEM", "AutoFJ (pw)"}


class TestTables:
    def test_table3_rows(self):
        rows = table3_dataset_statistics(["geo", "shopee"], profile="tiny")
        assert len(rows) == 2
        assert rows[0]["sources"] == 4
        assert rows[1]["sources"] == 20
        assert rows[0]["paper entities"] == 3054

    def test_table4_reuses_runs(self, geo_tiny):
        runs = run_matrix(["MultiEM"], ["geo"], profile="tiny")
        rows = table4_effectiveness(["geo"], ["MultiEM"], runs=runs)
        assert len(rows) == 1
        assert rows[0]["F1"] > 0

    def test_table5_and_6_from_same_runs(self):
        runs = run_matrix(["MultiEM"], ["geo"], profile="tiny")
        runtime_rows = table5_runtime(["geo"], ["MultiEM"], runs=runs)
        memory_rows = table6_memory(["geo"], ["MultiEM"], runs=runs)
        assert runtime_rows[0]["seconds"] > 0
        assert memory_rows[0]["bytes"] > 0

    def test_table7_selected_attributes(self):
        rows = table7_selected_attributes(["geo", "music-20"], profile="tiny")
        by_dataset = {row["dataset"]: row for row in rows}
        assert by_dataset["geo"]["selected attributes"] == "name"
        assert "title" in by_dataset["music-20"]["selected attributes"]


class TestFigures:
    def test_figure5_stage_columns(self):
        rows = figure5_module_times(["geo"], profile="tiny")
        assert len(rows) == 1
        assert set(rows[0]) == {"dataset", "S", "R", "M", "M(p)", "P", "P(p)"}

    def test_figure6_m_sweep_shape(self):
        rows = figure6_m(["geo"], values=(0.3, 0.6), profile="tiny")
        assert len(rows) == 2
        assert {row["m"] for row in rows} == {0.3, 0.6}
        assert all("normalized time" in row for row in rows)

    def test_figure6_seed_stability(self):
        rows = figure6_seed(["geo"], values=(0, 1), profile="tiny")
        f1_values = [row["F1"] for row in rows]
        assert len(f1_values) == 2
        # Merge order should not swing results wildly (paper: avg variation 1.4).
        assert abs(f1_values[0] - f1_values[1]) < 25


class TestAblations:
    def test_mutual_vs_directed_precision(self):
        rows = ablation_mutual_vs_directed(["geo"], profile="tiny")
        row = rows[0]
        assert row["mutual precision"] >= row["directed precision"]
        assert row["mutual pairs"] <= row["directed pairs"]

    def test_pruning_strategy_rows(self):
        rows = ablation_pruning_strategy(["geo"], profile="tiny")
        strategies = {row["pruning"] for row in rows}
        assert strategies == {"density", "none", "centroid"}

    @pytest.mark.parametrize("name, num_tuples", [("geo", 31), ("music-20", 57)])
    def test_unswapped_variant_is_the_multiem_pipeline(self, name, num_tuples):
        """With no design choice swapped, the ablation harness predicts what MultiEM does."""
        dataset = load_benchmark(name, profile="tiny")
        matcher = MultiEM(paper_default_config(name))
        tuples = _pipeline_with(dataset, name).tuples
        assert len(tuples) == num_tuples
        assert tuples == matcher.match(dataset).tuples
        unpruned = _pipeline_with(dataset, name, pruning="none").tuples
        assert unpruned == matcher.without_pruning().match(dataset).tuples

    def test_index_backend_rows(self):
        rows = ablation_index_backend(["geo"], profile="tiny")
        assert [_untimed(row) for row in rows] == [
            {"dataset": "geo", "index": "brute-force", "F1": 93.5, "pair-F1": 97.5},
            {"dataset": "geo", "index": "hnsw", "F1": 93.5, "pair-F1": 97.5},
        ]

    def test_representative_rows(self):
        rows = ablation_representative(["music-20"], profile="tiny")
        assert rows == [
            {"dataset": "music-20", "representative": "mean", "F1": 78.9, "pair-F1": 93.9},
            {"dataset": "music-20", "representative": "medoid", "F1": 68.4, "pair-F1": 90.0},
        ]


def _untimed(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "time (s)"}
