"""Tests for Algorithm 5 and the pairwise/chain drivers."""

import pytest

from repro.baselines import (
    ChainMatchingDriver,
    PairwiseMatchingDriver,
    TwoTableMatcher,
    pairs_to_tuples,
)
from repro.data import EntityRef, Table
from repro.exceptions import BaselineUnsupportedError


def _ref(source: str, index: int) -> EntityRef:
    return EntityRef(source, index)


class TestPairsToTuples:
    def test_transitive_grouping(self):
        pairs = [(_ref("A", 0), _ref("B", 0)), (_ref("B", 0), _ref("C", 0))]
        tuples = pairs_to_tuples(pairs)
        assert tuples == {frozenset({_ref("A", 0), _ref("B", 0), _ref("C", 0)})}

    def test_disjoint_pairs_stay_separate(self):
        pairs = [(_ref("A", 0), _ref("B", 0)), (_ref("A", 1), _ref("B", 1))]
        assert len(pairs_to_tuples(pairs)) == 2

    def test_empty_input(self):
        assert pairs_to_tuples([]) == set()

    def test_transitive_conflict_merges_groups(self):
        # One wrong pair (B0-A1) glues two otherwise-correct tuples together —
        # the failure mode the paper calls a transitive conflict.
        pairs = [
            (_ref("A", 0), _ref("B", 0)),
            (_ref("A", 1), _ref("B", 1)),
            (_ref("B", 0), _ref("A", 1)),
        ]
        tuples = pairs_to_tuples(pairs)
        assert len(tuples) == 1
        assert len(next(iter(tuples))) == 4

class ExactTitleMatcher(TwoTableMatcher):
    """Toy matcher: exact match on the first attribute."""

    name = "ExactTitle"

    def match_tables(self, left: Table, right: Table):
        right_by_value = {}
        for i in range(len(right)):
            right_by_value.setdefault(right.row(i)[0], []).append(right.refs()[i])
        pairs = []
        for i in range(len(left)):
            for ref in right_by_value.get(left.row(i)[0], []):
                pairs.append((left.refs()[i], ref))
        return pairs


@pytest.fixture()
def exact_dataset():
    from repro.data import MultiTableDataset

    a = Table("A", ("t",), [("apple",), ("pear",), ("plum",)])
    b = Table("B", ("t",), [("apple",), ("kiwi",)])
    c = Table("C", ("t",), [("apple",), ("pear",)])
    truth = [
        [_ref("A", 0), _ref("B", 0), _ref("C", 0)],
        [_ref("A", 1), _ref("C", 1)],
    ]
    return MultiTableDataset.from_tables("exact", [a, b, c], truth)


class TestDrivers:
    def test_pairwise_driver_finds_all_tuples(self, exact_dataset):
        result = PairwiseMatchingDriver(ExactTitleMatcher()).match(exact_dataset)
        assert result.method == "ExactTitle (pw)"
        assert result.tuples == exact_dataset.ground_truth
        assert result.metadata["driver"] == "pairwise"

    def test_chain_driver_finds_all_tuples(self, exact_dataset):
        result = ChainMatchingDriver(ExactTitleMatcher()).match(exact_dataset)
        assert result.method == "ExactTitle (c)"
        assert result.tuples == exact_dataset.ground_truth
        # All predicted refs must reference real source tables, never the
        # synthetic growing base table.
        for tup in result.tuples:
            assert all(ref.source in exact_dataset.tables for ref in tup)

    def test_chain_driver_num_pairs_recorded(self, exact_dataset):
        result = ChainMatchingDriver(ExactTitleMatcher()).match(exact_dataset)
        assert result.metadata["num_matched_pairs"] >= 3

    def test_size_limit_raises_unsupported(self, exact_dataset):
        matcher = ExactTitleMatcher()
        matcher.max_total_entities = 2
        with pytest.raises(BaselineUnsupportedError):
            PairwiseMatchingDriver(matcher).match(exact_dataset)
        with pytest.raises(BaselineUnsupportedError):
            ChainMatchingDriver(matcher).match(exact_dataset)

    def test_drivers_record_runtime(self, exact_dataset):
        result = PairwiseMatchingDriver(ExactTitleMatcher()).match(exact_dataset)
        assert result.timings.total >= 0
