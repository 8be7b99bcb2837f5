"""Tests for repro.data.table."""

import numpy as np
import pytest

from repro.data.table import Table
from repro.exceptions import DataError, SchemaError


@pytest.fixture()
def table() -> Table:
    return Table("A", ("title", "color"), [("iphone 8", "silver"), ("galaxy s10", "black")])


def test_table_requires_name_and_schema():
    with pytest.raises(DataError):
        Table("", ("a",))
    with pytest.raises(SchemaError):
        Table("A", ())
    with pytest.raises(SchemaError):
        Table("A", ("a", "a"))


def test_append_sequence_and_mapping(table):
    ref = table.append(("pixel 7", "white"))
    assert ref.source == "A" and ref.index == 2
    ref = table.append({"title": "xperia", "color": "blue"})
    assert table.row(ref.index) == ("xperia", "blue")


def test_append_arity_mismatch_raises(table):
    with pytest.raises(DataError):
        table.append(("only-one",))
    with pytest.raises(DataError):
        table.append({"title": "missing color"})


def test_row_and_entity_access(table):
    assert table.row(0) == ("iphone 8", "silver")
    entity = table.entity(1)
    assert entity.value("title") == "galaxy s10"
    assert entity.ref.index == 1
    with pytest.raises(DataError):
        table.row(99)


def test_entities_and_refs_align(table):
    entities = table.entities()
    refs = table.refs()
    assert [e.ref for e in entities] == refs
    assert len(list(iter(table))) == len(table) == 2


def test_column_access(table):
    assert table.column("color") == ["silver", "black"]
    with pytest.raises(SchemaError):
        table.column("nope")


def test_with_column_shuffled_is_permutation(table):
    table.append(("pixel", "white"))
    table.append(("xperia", "blue"))
    rng = np.random.default_rng(1)
    shuffled = table.with_column_shuffled("color", rng)
    assert sorted(shuffled.column("color")) == sorted(table.column("color"))
    assert shuffled.column("title") == table.column("title")
    assert len(shuffled) == len(table)


def test_with_column_shuffled_unknown_attribute(table):
    with pytest.raises(SchemaError):
        table.with_column_shuffled("nope", np.random.default_rng(0))


def test_sample_bounds(table):
    rng = np.random.default_rng(0)
    sampled = table.sample(0.5, rng)
    assert 1 <= len(sampled) <= len(table)
    with pytest.raises(DataError):
        table.sample(0.0, rng)
    with pytest.raises(DataError):
        table.sample(1.5, rng)


def test_sample_always_returns_at_least_one_row():
    table = Table("A", ("x",), [("1",)])
    sampled = table.sample(0.01, np.random.default_rng(0))
    assert len(sampled) == 1


def test_concat_requires_matching_schema(table):
    other = Table("B", ("title", "color"), [("mouse", "gray")])
    combined = Table.concat([table, other], name="all")
    assert len(combined) == len(table) + 1
    assert combined.schema == table.schema
    mismatched = Table("C", ("x",), [("1",)])
    with pytest.raises(SchemaError):
        Table.concat([table, mismatched])
    with pytest.raises(DataError):
        Table.concat([])
