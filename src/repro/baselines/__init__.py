"""Baseline matchers: two-table extensions, AutoFJ, MSCD-HAC/AP, supervised, ALMSER."""

from .almser import ALMSERGraphBoosted
from .autofj import AutoFuzzyJoin
from .common import jaccard, pair_features, serialized_lookup, vanilla_embeddings
from .extension import pairs_to_tuples
from .mscd import MSCDAP, MSCDHAC
from .supervised import DittoMatcher, EmbeddingPairClassifier, LogisticRegression, PromptEMMatcher
from .two_table import ChainMatchingDriver, MatchedPair, PairwiseMatchingDriver, TwoTableMatcher

__all__ = [
    "pairs_to_tuples",
    "TwoTableMatcher",
    "MatchedPair",
    "PairwiseMatchingDriver",
    "ChainMatchingDriver",
    "AutoFuzzyJoin",
    "EmbeddingPairClassifier",
    "DittoMatcher",
    "PromptEMMatcher",
    "LogisticRegression",
    "MSCDHAC",
    "MSCDAP",
    "ALMSERGraphBoosted",
    "vanilla_embeddings",
    "pair_features",
    "jaccard",
    "serialized_lookup",
]
