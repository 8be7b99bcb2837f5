"""Tests for repro.data.dataset."""

import pytest

from repro.data import EntityRef, MultiTableDataset, Table, make_tuple
from repro.exceptions import DataError, SchemaError


def _dataset() -> MultiTableDataset:
    a = Table("A", ("t",), [("x",), ("y",)])
    b = Table("B", ("t",), [("x2",), ("z",)])
    c = Table("C", ("t",), [("x3",)])
    truth = [
        [EntityRef("A", 0), EntityRef("B", 0), EntityRef("C", 0)],
    ]
    return MultiTableDataset.from_tables("demo", [a, b, c], truth)


def test_make_tuple_requires_two_members():
    with pytest.raises(DataError):
        make_tuple([EntityRef("A", 0)])
    tup = make_tuple([EntityRef("A", 0), EntityRef("B", 1)])
    assert len(tup) == 2


def test_dataset_statistics():
    ds = _dataset()
    stats = ds.statistics()
    assert stats["sources"] == 3
    assert stats["entities"] == 5
    assert stats["tuples"] == 1
    assert stats["pairs"] == 3  # one 3-member tuple -> 3 pairs
    assert ds.num_truth_pairs == 3


def test_dataset_schema_consistency_enforced():
    a = Table("A", ("t",), [("x",)])
    b = Table("B", ("other",), [("y",)])
    with pytest.raises(SchemaError):
        MultiTableDataset.from_tables("bad", [a, b])


def test_dataset_requires_tables():
    with pytest.raises(DataError):
        MultiTableDataset(name="empty", tables={})


def test_dataset_table_key_must_match_name():
    a = Table("A", ("t",), [("x",)])
    with pytest.raises(DataError):
        MultiTableDataset(name="bad", tables={"WRONG": a})


def test_entity_resolution_and_unknown_source():
    ds = _dataset()
    entity = ds.entity(EntityRef("B", 1))
    assert entity.value("t") == "z"
    with pytest.raises(DataError):
        ds.entity(EntityRef("Z", 0))


def test_all_refs_sorted_and_complete():
    ds = _dataset()
    refs = ds.all_refs()
    assert len(refs) == ds.num_entities
    assert refs == sorted(refs)


def test_truth_pairs_expansion():
    ds = _dataset()
    pairs = ds.truth_pairs()
    assert (EntityRef("A", 0), EntityRef("B", 0)) in pairs
    assert (EntityRef("A", 0), EntityRef("C", 0)) in pairs
    assert (EntityRef("B", 0), EntityRef("C", 0)) in pairs
    assert all(a < b for a, b in pairs)


def test_subset_filters_ground_truth():
    ds = _dataset()
    sub = ds.subset(["A", "B"])
    assert sub.num_sources == 2
    # The 3-member tuple shrinks to 2 members and survives.
    assert len(sub.ground_truth) == 1
    only = next(iter(sub.ground_truth))
    assert {ref.source for ref in only} == {"A", "B"}
    with pytest.raises(DataError):
        ds.subset(["A", "missing"])


def test_subset_drops_tuples_with_single_survivor():
    ds = _dataset()
    sub = ds.subset(["A", "C"])
    # A0-C0 survives as a pair.
    assert len(sub.ground_truth) == 1
    sub2 = ds.subset(["B", "C"])
    assert len(sub2.ground_truth) == 1
