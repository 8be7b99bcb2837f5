"""Evaluation metrics: tuple-level F1 and pair-level F1 (Section IV-A).

Two views of the same prediction are scored:

* **tuple metrics** — a predicted tuple counts as correct only when it equals
  a ground-truth tuple *exactly* (the paper's strict F1);
* **pair metrics** — tuples are expanded into entity pairs and scored as a
  set-overlap problem (the paper's looser "pair-F1"), which also allows
  comparison with two-table EM methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.result import MatchResult, tuples_to_pairs
from ..data.dataset import MatchTuple, MultiTableDataset
from ..data.entity import EntityRef
from ..exceptions import EvaluationError


@dataclass(frozen=True)
class PrecisionRecallF1:
    """A precision / recall / F1 triple (fractions in [0, 1])."""

    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(true_positives: int, num_predicted: int, num_truth: int) -> "PrecisionRecallF1":
        precision = true_positives / num_predicted if num_predicted else 0.0
        recall = true_positives / num_truth if num_truth else 0.0
        denominator = precision + recall
        f1 = 2 * precision * recall / denominator if denominator else 0.0
        return PrecisionRecallF1(precision, recall, f1)


@dataclass(frozen=True)
class EvaluationReport:
    """Full evaluation of one prediction against one dataset's ground truth."""

    method: str
    dataset: str
    tuple_metrics: PrecisionRecallF1
    pair_metrics: PrecisionRecallF1
    num_predicted_tuples: int
    num_truth_tuples: int
    num_predicted_pairs: int
    num_truth_pairs: int

    @property
    def f1(self) -> float:
        """Tuple-level F1 as a percentage (the paper's headline "F1")."""
        return 100 * self.tuple_metrics.f1

    @property
    def pair_f1(self) -> float:
        """Pair-level F1 as a percentage (the paper's "pair-F1")."""
        return 100 * self.pair_metrics.f1

    def as_row(self) -> dict[str, object]:
        """Row for report tables (columns mirroring Table IV)."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "P": round(100 * self.tuple_metrics.precision, 1),
            "R": round(100 * self.tuple_metrics.recall, 1),
            "F1": round(self.f1, 1),
            "pair-F1": round(self.pair_f1, 1),
        }


def tuple_scores(
    predicted: Iterable[MatchTuple], truth: Iterable[MatchTuple]
) -> PrecisionRecallF1:
    """Exact-match tuple precision/recall/F1."""
    predicted_set = set(predicted)
    truth_set = set(truth)
    true_positives = len(predicted_set & truth_set)
    return PrecisionRecallF1.from_counts(true_positives, len(predicted_set), len(truth_set))


def pair_scores(
    predicted_pairs: Iterable[tuple[EntityRef, EntityRef]],
    truth_pairs: Iterable[tuple[EntityRef, EntityRef]],
) -> PrecisionRecallF1:
    """Pair-level precision/recall/F1 over canonical pair sets."""
    predicted_set = set(predicted_pairs)
    truth_set = set(truth_pairs)
    true_positives = len(predicted_set & truth_set)
    return PrecisionRecallF1.from_counts(true_positives, len(predicted_set), len(truth_set))


def evaluate_tuples(
    predicted: Iterable[MatchTuple],
    dataset: MultiTableDataset,
    *,
    method: str = "unknown",
) -> EvaluationReport:
    """Evaluate a raw set of predicted tuples against a dataset's ground truth."""
    predicted_set = set(predicted)
    if not dataset.ground_truth:
        raise EvaluationError(f"dataset {dataset.name!r} has no ground truth to evaluate against")
    known_refs = set(dataset.all_refs())
    for tup in predicted_set:
        unknown = [ref for ref in tup if ref not in known_refs]
        if unknown:
            raise EvaluationError(f"prediction references unknown entities: {unknown[:3]}")
    predicted_pairs = tuples_to_pairs(predicted_set)
    truth_pairs = dataset.truth_pairs()
    return EvaluationReport(
        method=method,
        dataset=dataset.name,
        tuple_metrics=tuple_scores(predicted_set, dataset.ground_truth),
        pair_metrics=pair_scores(predicted_pairs, truth_pairs),
        num_predicted_tuples=len(predicted_set),
        num_truth_tuples=len(dataset.ground_truth),
        num_predicted_pairs=len(predicted_pairs),
        num_truth_pairs=len(truth_pairs),
    )


def evaluate(result: MatchResult, dataset: MultiTableDataset) -> EvaluationReport:
    """Evaluate a :class:`MatchResult` (from MultiEM or any baseline)."""
    return evaluate_tuples(result.tuples, dataset, method=result.method)
