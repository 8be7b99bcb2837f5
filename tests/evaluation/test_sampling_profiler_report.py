"""Tests for pair sampling, profiling, and report formatting."""

import time

import pytest

from repro.evaluation import (
    format_duration,
    format_memory,
    format_table,
    profile_call,
    sample_labeled_pairs,
)
from repro.exceptions import EvaluationError


class TestSampling:
    def test_splits_and_labels(self, music_tiny):
        sample = sample_labeled_pairs(music_tiny, seed=0)
        assert sum(1 for _, _, label in sample.train if label) >= 1
        assert any(not label for _, _, label in sample.train)
        assert len(sample.test) > len(music_tiny.truth_pairs())
        # Every true pair appears in the test split.
        positives_in_test = {(a, b) for a, b, label in sample.test if label}
        assert positives_in_test == music_tiny.truth_pairs()

    def test_negative_pairs_are_really_negative(self, music_tiny):
        sample = sample_labeled_pairs(music_tiny, seed=1)
        truth = music_tiny.truth_pairs()
        for a, b, label in sample.train:
            if not label:
                assert (min(a, b), max(a, b)) not in truth
                assert a.source != b.source

    def test_deterministic_given_seed(self, music_tiny):
        first = sample_labeled_pairs(music_tiny, seed=5)
        second = sample_labeled_pairs(music_tiny, seed=5)
        assert first.train == second.train
        assert first.test == second.test

    def test_unlabeled_dataset_rejected(self, handmade_dataset):
        handmade_dataset.ground_truth.clear()
        with pytest.raises(EvaluationError):
            sample_labeled_pairs(handmade_dataset)


class TestProfiler:
    def test_profile_call_measures_time_and_value(self):
        def workload():
            time.sleep(0.01)
            return [0] * 100_000

        run = profile_call(workload)
        assert run.elapsed_seconds >= 0.01
        assert run.peak_memory_bytes > 100_000
        assert len(run.value) == 100_000
        assert run.peak_memory_bytes / (1024 * 1024) > 0

    def test_format_duration(self):
        assert format_duration(5.3) == "5.3s"
        assert format_duration(90) == "1.5m"
        assert format_duration(7200) == "2.0h"

    def test_format_memory(self):
        assert format_memory(50 * 1024 * 1024) == "50.0M"
        assert format_memory(3 * 1024 * 1024 * 1024) == "3.00G"


class TestReport:
    def test_format_table_alignment_and_missing(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22}]
        text = format_table(rows, ["a", "b"], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in lines[-1]  # missing value placeholder

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_floats_rounded(self):
        text = format_table([{"v": 3.14159}])
        assert "3.1" in text
