"""Tests for evaluation metrics (tuple-F1 and pair-F1)."""

import pytest

from repro.core.result import MatchResult
from repro.data import EntityRef, MultiTableDataset, Table
from repro.evaluation import (
    PrecisionRecallF1,
    evaluate,
    evaluate_tuples,
    pair_scores,
    tuple_scores,
)
from repro.exceptions import EvaluationError


def _ref(source: str, index: int) -> EntityRef:
    return EntityRef(source, index)


def _dataset() -> MultiTableDataset:
    tables = [Table(name, ("t",), [(f"{name}{i}",) for i in range(4)]) for name in "ABC"]
    truth = [
        [_ref("A", 0), _ref("B", 0), _ref("C", 0)],
        [_ref("A", 1), _ref("B", 1)],
        [_ref("A", 2), _ref("C", 2)],
    ]
    return MultiTableDataset.from_tables("metrics-demo", tables, truth)


class TestPrecisionRecallF1:
    def test_from_counts(self):
        metrics = PrecisionRecallF1.from_counts(2, 4, 5)
        assert metrics.precision == 0.5
        assert metrics.recall == 0.4
        assert metrics.f1 == pytest.approx(2 * 0.5 * 0.4 / 0.9)

    def test_zero_denominators(self):
        metrics = PrecisionRecallF1.from_counts(0, 0, 0)
        assert metrics.precision == metrics.recall == metrics.f1 == 0.0

class TestTupleAndPairScores:
    def test_exact_tuple_match_required(self):
        truth = {frozenset({_ref("A", 0), _ref("B", 0), _ref("C", 0)})}
        near_miss = {frozenset({_ref("A", 0), _ref("B", 0)})}
        assert tuple_scores(near_miss, truth).f1 == 0.0
        assert tuple_scores(truth, truth).f1 == 1.0

    def test_pair_scores_partial_credit_example2(self):
        # Example 2 of the paper: truth (1,2,3), prediction (1,2,4).
        a, b, c, d = _ref("A", 1), _ref("B", 2), _ref("C", 3), _ref("D", 4)
        truth_pairs = {(a, b), (a, c), (b, c)}
        predicted_pairs = {(a, b), (a, d), (b, d)}
        scores = pair_scores(predicted_pairs, truth_pairs)
        assert scores.precision == pytest.approx(1 / 3)
        assert scores.recall == pytest.approx(1 / 3)
        assert scores.f1 == pytest.approx(1 / 3)


class TestEvaluate:
    def test_perfect_prediction(self):
        dataset = _dataset()
        report = evaluate_tuples(dataset.ground_truth, dataset, method="oracle")
        assert report.f1 == 100.0
        assert report.pair_f1 == 100.0
        assert report.method == "oracle"

    def test_partial_prediction(self):
        dataset = _dataset()
        predicted = {frozenset({_ref("A", 1), _ref("B", 1)})}
        report = evaluate_tuples(predicted, dataset)
        assert report.tuple_metrics.precision == 1.0
        assert report.tuple_metrics.recall == pytest.approx(1 / 3)
        assert report.num_predicted_tuples == 1
        assert report.num_truth_tuples == 3

    def test_wrong_member_breaks_tuple_but_not_all_pairs(self):
        dataset = _dataset()
        predicted = {frozenset({_ref("A", 0), _ref("B", 0), _ref("C", 1)})}
        report = evaluate_tuples(predicted, dataset)
        assert report.f1 == 0.0
        assert report.pair_f1 > 0.0

    def test_unknown_refs_rejected(self):
        dataset = _dataset()
        with pytest.raises(EvaluationError):
            evaluate_tuples({frozenset({_ref("Z", 0), _ref("A", 0)})}, dataset)

    def test_missing_ground_truth_rejected(self):
        tables = [Table("A", ("t",), [("x",)]), Table("B", ("t",), [("y",)])]
        unlabeled = MultiTableDataset.from_tables("unlabeled", tables)
        with pytest.raises(EvaluationError):
            evaluate_tuples(set(), unlabeled)

    def test_evaluate_match_result(self):
        dataset = _dataset()
        result = MatchResult(tuples=set(dataset.ground_truth), method="MultiEM")
        report = evaluate(result, dataset)
        assert report.method == "MultiEM"
        assert report.dataset == "metrics-demo"
        row = report.as_row()
        assert row["F1"] == 100.0 and row["pair-F1"] == 100.0

    def test_empty_prediction_scores_zero(self):
        dataset = _dataset()
        report = evaluate_tuples(set(), dataset)
        assert report.f1 == 0.0
        assert report.pair_f1 == 0.0
