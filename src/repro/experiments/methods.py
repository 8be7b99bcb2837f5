"""Method registry used by the experiment harness.

Every method the paper evaluates (Table IV) is registered here under the
exact label the paper uses, mapped to a factory that builds a ready-to-run
matcher (an object exposing ``match(dataset) -> MatchResult``) for a given
dataset name.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..baselines import (
    ALMSERGraphBoosted,
    AutoFuzzyJoin,
    ChainMatchingDriver,
    DittoMatcher,
    MSCDAP,
    MSCDHAC,
    PairwiseMatchingDriver,
    PromptEMMatcher,
)
from ..config import paper_default_config
from ..core import MultiEM
from ..data.dataset import MultiTableDataset
from ..core.result import MatchResult
from ..exceptions import ConfigurationError


class Matcher(Protocol):
    """Anything that can match a multi-table dataset."""

    def match(self, dataset: MultiTableDataset) -> MatchResult: ...


MethodFactory = Callable[[str, int], Matcher]


def _multiem(dataset_name: str, seed: int) -> Matcher:
    # Serial on purpose: Table V / Figure 5 compare it against "MultiEM (parallel)".
    config = paper_default_config(dataset_name, parallel=False).with_overrides(
        representation={"seed": seed}, merging={"seed": seed}
    )
    return MultiEM(config)


def _multiem_parallel(dataset_name: str, seed: int) -> Matcher:
    config = paper_default_config(dataset_name, parallel=True).with_overrides(
        representation={"seed": seed}, merging={"seed": seed}
    )
    return MultiEM(config)


def _multiem_without_eer(dataset_name: str, seed: int) -> Matcher:
    return _multiem(dataset_name, seed).without_eer()


def _multiem_without_dp(dataset_name: str, seed: int) -> Matcher:
    return _multiem(dataset_name, seed).without_pruning()


METHOD_REGISTRY: dict[str, MethodFactory] = {
    "MultiEM": _multiem,
    "MultiEM (parallel)": _multiem_parallel,
    "MultiEM w/o EER": _multiem_without_eer,
    "MultiEM w/o DP": _multiem_without_dp,
    "PromptEM (pw)": lambda name, seed: PairwiseMatchingDriver(PromptEMMatcher(seed=seed)),
    "PromptEM (c)": lambda name, seed: ChainMatchingDriver(PromptEMMatcher(seed=seed)),
    "Ditto (pw)": lambda name, seed: PairwiseMatchingDriver(DittoMatcher(seed=seed)),
    "Ditto (c)": lambda name, seed: ChainMatchingDriver(DittoMatcher(seed=seed)),
    "AutoFJ (pw)": lambda name, seed: PairwiseMatchingDriver(AutoFuzzyJoin()),
    "AutoFJ (c)": lambda name, seed: ChainMatchingDriver(AutoFuzzyJoin()),
    "ALMSER-GB": lambda name, seed: ALMSERGraphBoosted(seed=seed),
    "MSCD-HAC": lambda name, seed: MSCDHAC(seed=seed),
    "MSCD-AP": lambda name, seed: MSCDAP(seed=seed),
}

#: The method order of Table IV (MSCD-AP is an extra, not in the paper's table).
TABLE4_METHODS = (
    "PromptEM (pw)",
    "Ditto (pw)",
    "AutoFJ (pw)",
    "PromptEM (c)",
    "Ditto (c)",
    "AutoFJ (c)",
    "ALMSER-GB",
    "MSCD-HAC",
    "MultiEM",
    "MultiEM w/o EER",
    "MultiEM w/o DP",
)

#: The method order of Tables V and VI (runtime / memory).
TABLE5_METHODS = TABLE4_METHODS[:-2] + ("MultiEM (parallel)",)


def create_method(name: str, dataset_name: str, seed: int = 0) -> Matcher:
    """Instantiate a registered method for a dataset."""
    factory = METHOD_REGISTRY.get(name)
    if factory is None:
        raise ConfigurationError(f"unknown method {name!r}; available: {sorted(METHOD_REGISTRY)}")
    return factory(dataset_name, seed)
