"""Result objects returned by the MultiEM pipeline and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..data.dataset import MatchTuple
from ..data.entity import EntityRef


def tuples_to_pairs(tuples: Iterable[MatchTuple]) -> set[tuple[EntityRef, EntityRef]]:
    """Expand matched tuples into canonical matched pairs.

    Pairs are ordered ``(min, max)`` under the natural ordering of
    :class:`EntityRef` so the result is a proper set.
    """
    pairs: set[tuple[EntityRef, EntityRef]] = set()
    for tup in tuples:
        members = sorted(tup)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b))
    return pairs


@dataclass
class StageTimings:
    """Wall-clock seconds per pipeline stage (Figure 5's S/R/M/P breakdown)."""

    attribute_selection: float = 0.0
    representation: float = 0.0
    merging: float = 0.0
    pruning: float = 0.0

    @property
    def total(self) -> float:
        return self.attribute_selection + self.representation + self.merging + self.pruning

    def as_dict(self) -> dict[str, float]:
        return {
            "attribute_selection": self.attribute_selection,
            "representation": self.representation,
            "merging": self.merging,
            "pruning": self.pruning,
            "total": self.total,
        }


@dataclass
class MatchResult:
    """Predicted matched tuples plus run diagnostics.

    Attributes:
        tuples: the predicted matched tuples (each with >= 2 members).
        selected_attributes: attributes kept by Algorithm 1 (all attributes
            when the EER module is disabled).
        significance_scores: per-attribute significance from Algorithm 1.
        timings: per-stage wall-clock timings.
        method: human-readable method name (used in report tables).
        metadata: anything else worth keeping (config echo, peak memory, ...).
    """

    tuples: set[MatchTuple] = field(default_factory=set)
    selected_attributes: tuple[str, ...] = ()
    significance_scores: dict[str, float] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    method: str = "MultiEM"
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def num_tuples(self) -> int:
        return len(self.tuples)

    def pairs(self) -> set[tuple[EntityRef, EntityRef]]:
        """Predicted matched pairs implied by the predicted tuples."""
        return tuples_to_pairs(self.tuples)
