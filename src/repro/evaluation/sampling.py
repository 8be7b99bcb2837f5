"""Train/validation/test pair sampling for the supervised baselines.

The paper trains Ditto / PromptEM / ALMSER-GB on 5 % of the ground truth
(plus 5 % validation) and evaluates on the full ground truth mixed with ``P``
sampled mismatched pairs per true pair. This module reproduces that protocol
so the supervised stand-ins see the same kind of supervision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import MultiTableDataset
from ..data.entity import EntityRef
from ..exceptions import EvaluationError

#: A labeled pair: (left ref, right ref, is_match).
LabeledPair = tuple[EntityRef, EntityRef, bool]


@dataclass
class PairSample:
    """Labeled pair splits for the supervised baselines."""

    train: list[LabeledPair] = field(default_factory=list)
    valid: list[LabeledPair] = field(default_factory=list)
    test: list[LabeledPair] = field(default_factory=list)


def _random_negative(
    dataset: MultiTableDataset,
    truth_pairs: set[tuple[EntityRef, EntityRef]],
    rng: np.random.Generator,
    all_refs: list[EntityRef],
) -> tuple[EntityRef, EntityRef]:
    """Sample a cross-source pair that is not a true match."""
    for _ in range(64):
        a = all_refs[int(rng.integers(0, len(all_refs)))]
        b = all_refs[int(rng.integers(0, len(all_refs)))]
        if a == b or a.source == b.source:
            continue
        pair = (min(a, b), max(a, b))
        if pair not in truth_pairs:
            return pair
    raise EvaluationError("could not sample a negative pair; dataset too dense")


def sample_labeled_pairs(
    dataset: MultiTableDataset,
    *,
    train_fraction: float = 0.05,
    valid_fraction: float = 0.05,
    negatives_per_positive: int = 5,
    test_negatives_per_positive: int = 10,
    seed: int = 0,
) -> PairSample:
    """Build the supervised-protocol splits from a dataset's ground truth.

    Args:
        dataset: labeled dataset.
        train_fraction / valid_fraction: fraction of true pairs used for
            training / validation (paper: 5 % each).
        negatives_per_positive: negative pairs sampled per training positive.
        test_negatives_per_positive: negative pairs per positive in the test
            split (a scaled-down version of the paper's P = 100/500).
        seed: sampling seed.
    """
    truth_pairs = sorted(dataset.truth_pairs())
    if not truth_pairs:
        raise EvaluationError("dataset has no ground-truth pairs to sample from")
    rng = np.random.default_rng(seed)
    all_refs = dataset.all_refs()
    truth_set = set(truth_pairs)

    order = rng.permutation(len(truth_pairs))
    num_train = max(1, int(round(train_fraction * len(truth_pairs))))
    num_valid = max(1, int(round(valid_fraction * len(truth_pairs))))
    train_idx = set(int(i) for i in order[:num_train])
    valid_idx = set(int(i) for i in order[num_train : num_train + num_valid])

    sample = PairSample()
    for i, pair in enumerate(truth_pairs):
        labeled: LabeledPair = (pair[0], pair[1], True)
        if i in train_idx:
            sample.train.append(labeled)
            for _ in range(negatives_per_positive):
                neg = _random_negative(dataset, truth_set, rng, all_refs)
                sample.train.append((neg[0], neg[1], False))
        elif i in valid_idx:
            sample.valid.append(labeled)
            for _ in range(negatives_per_positive):
                neg = _random_negative(dataset, truth_set, rng, all_refs)
                sample.valid.append((neg[0], neg[1], False))
        # Every true pair goes into the test split (the paper evaluates on the
        # entire ground truth).
        sample.test.append(labeled)
    for _ in range(min(len(truth_pairs) * test_negatives_per_positive, 200_000)):
        neg = _random_negative(dataset, truth_set, rng, all_refs)
        sample.test.append((neg[0], neg[1], False))
    return sample
