"""Tests for the parallel executor and result objects."""

import pytest

from repro.config import ParallelConfig
from repro.core import StageTimings, partition, tuples_to_pairs
from repro.core.parallel import ParallelExecutor
from repro.data import EntityRef
from repro.exceptions import ConfigurationError


class TestParallelExecutor:
    def test_serial_map(self):
        executor = ParallelExecutor(ParallelConfig(enabled=False))
        assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert not executor.is_parallel

    def test_thread_map_preserves_order(self):
        executor = ParallelExecutor(ParallelConfig(enabled=True, max_workers=4))
        assert executor.is_parallel
        assert executor.map(lambda x: x + 1, list(range(50))) == list(range(1, 51))

    def test_single_item_stays_serial(self):
        executor = ParallelExecutor(ParallelConfig(enabled=True))
        assert executor.map(lambda x: x, [42]) == [42]
        assert executor._pool is None

    def test_empty_items(self):
        executor = ParallelExecutor(ParallelConfig(enabled=True))
        assert executor.map(lambda x: x, []) == []
        assert executor._pool is None


class TestPartition:
    def test_balanced_partition(self):
        chunks = partition(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_more_parts_than_items(self):
        chunks = partition([1, 2], 5)
        assert chunks == [[1], [2]]

    def test_empty_and_invalid(self):
        assert partition([], 3) == []
        with pytest.raises(ConfigurationError):
            partition([1], 0)


class TestResults:
    def test_tuples_to_pairs(self):
        tuples = {frozenset({EntityRef("A", 0), EntityRef("B", 0), EntityRef("C", 0)})}
        pairs = tuples_to_pairs(tuples)
        assert len(pairs) == 3
        assert all(a < b for a, b in pairs)

    def test_stage_timings_total(self):
        timings = StageTimings(attribute_selection=1.0, representation=2.0, merging=3.0, pruning=4.0)
        assert timings.total == 10.0
        assert timings.as_dict()["total"] == 10.0
