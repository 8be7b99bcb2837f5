"""Evaluation: tuple/pair metrics, supervised sampling protocol, profiling, reports."""

from .metrics import (
    EvaluationReport,
    PrecisionRecallF1,
    evaluate,
    evaluate_tuples,
    pair_scores,
    tuple_scores,
)
from .profiler import ProfiledRun, format_duration, format_memory, profile_call
from .report import format_table
from .sampling import LabeledPair, PairSample, sample_labeled_pairs

__all__ = [
    "EvaluationReport",
    "PrecisionRecallF1",
    "evaluate",
    "evaluate_tuples",
    "tuple_scores",
    "pair_scores",
    "PairSample",
    "LabeledPair",
    "sample_labeled_pairs",
    "ProfiledRun",
    "profile_call",
    "format_duration",
    "format_memory",
    "format_table",
]
