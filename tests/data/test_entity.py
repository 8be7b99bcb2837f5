"""Tests for repro.data.entity."""

import pytest

from repro.data.entity import Entity, EntityRef
from repro.exceptions import SchemaError


def test_entity_ref_ordering_and_equality():
    a = EntityRef("A", 0)
    b = EntityRef("A", 1)
    c = EntityRef("B", 0)
    assert a < b < c
    assert a == EntityRef("A", 0)
    assert len({a, EntityRef("A", 0)}) == 1


def test_entity_ref_is_hashable_and_usable_in_frozenset():
    group = frozenset({EntityRef("A", 0), EntityRef("B", 1)})
    assert EntityRef("A", 0) in group


def test_entity_value_access():
    entity = Entity(EntityRef("A", 0), {"title": "iphone", "color": "silver"})
    assert entity.value("title") == "iphone"
    assert entity.get("missing", "fallback") == "fallback"
    assert entity.attributes == ("title", "color")
    assert len(entity) == 2


def test_entity_value_unknown_attribute_raises():
    entity = Entity(EntityRef("A", 0), {"title": "iphone"})
    with pytest.raises(SchemaError):
        entity.value("color")


def test_entity_items_preserves_order():
    entity = Entity(EntityRef("A", 0), {"x": "1", "y": "2"})
    assert list(entity.items()) == [("x", "1"), ("y", "2")]


def test_entity_values_are_copied():
    values = {"a": "1"}
    entity = Entity(EntityRef("A", 0), values)
    values["a"] = "mutated"
    assert entity.value("a") == "1"
