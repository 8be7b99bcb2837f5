"""ALMSER-GB stand-in: graph-boosted active learning for multi-source ER.

ALMSER-GB (Primpeli & Bizer, ISWC 2021) actively queries an annotator for the
most informative candidate pairs, augments pair features with similarity-graph
signals, and trains a boosted classifier. The reproduction keeps that loop:

* candidate pairs come from mutual nearest neighbours across all table pairs;
* the "annotator" is the dataset's ground truth (an oracle with a fixed query
  budget, standing in for the paper's 5 % label budget);
* each active-learning round retrains a logistic-regression matcher on pair
  features extended with a graph feature (how strongly the two records are
  already connected through currently-predicted matches);
* the final pair predictions are converted to tuples with Algorithm 5.

Candidate generation is quadratic in the number of table pairs and the graph
feature needs the full candidate set in memory, so the baseline refuses very
large datasets — mirroring its timeouts on Music-200 and larger in the paper.
"""

from __future__ import annotations

import time

import numpy as np

from ..ann.mutual import mutual_top_k
from ..clustering.union_find import UnionFind
from ..core.result import MatchResult, StageTimings
from ..data.dataset import MultiTableDataset
from ..data.entity import EntityRef
from ..exceptions import BaselineUnsupportedError
from .common import pair_features, serialized_lookup, vanilla_embeddings
from .extension import pairs_to_tuples
from .supervised import LogisticRegression


class ALMSERGraphBoosted:
    """Active-learning multi-source matcher with a graph-connectivity feature."""

    name = "ALMSER-GB"

    def __init__(
        self,
        *,
        candidate_k: int = 2,
        candidate_max_distance: float = 0.8,
        query_budget: int = 200,
        rounds: int = 4,
        threshold: float = 0.5,
        max_total_entities: int | None = 10_000,
        seed: int = 0,
    ) -> None:
        self.candidate_k = candidate_k
        self.candidate_max_distance = candidate_max_distance
        self.query_budget = query_budget
        self.rounds = rounds
        self.threshold = threshold
        self.max_total_entities = max_total_entities
        self.seed = seed

    # ------------------------------------------------------------ candidates
    def _candidate_pairs(
        self, dataset: MultiTableDataset, lookup: dict[EntityRef, np.ndarray]
    ) -> list[tuple[EntityRef, EntityRef]]:
        tables = dataset.table_list()
        candidates: list[tuple[EntityRef, EntityRef]] = []
        for i, left in enumerate(tables):
            left_refs = left.refs()
            left_matrix = np.stack([lookup[ref] for ref in left_refs])
            for right in tables[i + 1 :]:
                right_refs = right.refs()
                right_matrix = np.stack([lookup[ref] for ref in right_refs])
                for pair in mutual_top_k(
                    left_matrix,
                    right_matrix,
                    k=self.candidate_k,
                    max_distance=self.candidate_max_distance,
                ):
                    candidates.append((left_refs[pair.left], right_refs[pair.right]))
        return candidates

    @staticmethod
    def _graph_feature(
        pair: tuple[EntityRef, EntityRef], components: UnionFind[EntityRef]
    ) -> float:
        """1.0 when the two records are already transitively connected."""
        a, b = pair
        if a not in components or b not in components:
            return 0.0
        return 1.0 if components.connected(a, b) else 0.0

    # ----------------------------------------------------------------- match
    def match(self, dataset: MultiTableDataset) -> MatchResult:
        if self.max_total_entities is not None and dataset.num_entities > self.max_total_entities:
            raise BaselineUnsupportedError(
                f"{self.name} does not scale to {dataset.num_entities} entities"
            )
        started = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        _, lookup = vanilla_embeddings(dataset, seed=self.seed)
        texts = serialized_lookup(dataset)
        truth_pairs = dataset.truth_pairs()

        candidates = self._candidate_pairs(dataset, lookup)
        if not candidates:
            return MatchResult(
                tuples=set(), method=self.name, timings=StageTimings(merging=time.perf_counter() - started)
            )
        base_features = np.stack(
            [pair_features(lookup[a], lookup[b], texts[a], texts[b]) for a, b in candidates]
        )
        labels = np.array(
            [1.0 if (min(a, b), max(a, b)) in truth_pairs else 0.0 for a, b in candidates]
        )

        labeled_mask = np.zeros(len(candidates), dtype=bool)
        # Seed round: random queries; later rounds: uncertainty sampling.
        per_round = max(1, self.query_budget // self.rounds)
        seed_indices = rng.choice(len(candidates), size=min(per_round, len(candidates)), replace=False)
        labeled_mask[seed_indices] = True

        classifier = LogisticRegression()
        components: UnionFind[EntityRef] = UnionFind()
        predictions = np.zeros(len(candidates), dtype=bool)
        for _ in range(self.rounds):
            graph_column = np.array(
                [self._graph_feature(pair, components) for pair in candidates]
            )[:, None]
            features = np.hstack([base_features, graph_column])
            train_labels = labels[labeled_mask]
            if len(set(train_labels.tolist())) < 2:
                # Oracle happened to return one class only; query more pairs.
                extra = rng.choice(len(candidates), size=min(per_round, len(candidates)), replace=False)
                labeled_mask[extra] = True
                train_labels = labels[labeled_mask]
                if len(set(train_labels.tolist())) < 2:
                    break
            classifier.fit(features[labeled_mask], train_labels)
            probabilities = classifier.predict_proba(features)
            predictions = probabilities >= self.threshold
            # Rebuild the prediction graph for the next round's graph feature.
            components = UnionFind()
            for pair, predicted in zip(candidates, predictions):
                if predicted:
                    components.union(pair[0], pair[1])
            # Uncertainty sampling for the next round.
            if labeled_mask.sum() < self.query_budget:
                uncertainty = np.abs(probabilities - 0.5)
                uncertainty[labeled_mask] = np.inf
                next_queries = np.argsort(uncertainty)[:per_round]
                labeled_mask[next_queries] = True

        matched_pairs = [pair for pair, predicted in zip(candidates, predictions) if predicted]
        tuples = pairs_to_tuples(matched_pairs)
        elapsed = time.perf_counter() - started
        return MatchResult(
            tuples=tuples,
            selected_attributes=dataset.schema,
            timings=StageTimings(merging=elapsed),
            method=self.name,
            metadata={
                "num_candidates": len(candidates),
                "num_queried": int(labeled_mask.sum()),
                "num_matched_pairs": len(matched_pairs),
            },
        )
