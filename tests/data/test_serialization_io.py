"""Tests for repro.data.serialization and repro.data.io."""

import json

import pytest

from repro.data import (
    Entity,
    EntityRef,
    Table,
    load_dataset,
    read_table_csv,
    save_dataset,
    serialize_entity,
    serialize_table,
    write_table_csv,
)
from repro.data.dataset import MultiTableDataset
from repro.exceptions import DataError


def test_serialize_entity_concatenates_values_and_lowercases():
    entity = Entity(EntityRef("A", 0), {"title": "Apple iPhone 8", "color": "Silver"})
    assert serialize_entity(entity) == "apple iphone 8 silver"


def test_serialize_entity_respects_attribute_subset_and_order():
    entity = Entity(EntityRef("A", 0), {"a": "one", "b": "two", "c": "three"})
    assert serialize_entity(entity, ["c", "a"]) == "three one"
    assert serialize_entity(entity, ["missing"]) == ""


def test_serialize_entity_skips_empty_values():
    entity = Entity(EntityRef("A", 0), {"a": "", "b": "  ", "c": "word"})
    assert serialize_entity(entity) == "word"


def test_serialize_entity_truncates_tokens():
    entity = Entity(EntityRef("A", 0), {"a": "w1 w2 w3 w4 w5"})
    assert serialize_entity(entity, max_tokens=3) == "w1 w2 w3"


def test_serialize_table_row_order():
    table = Table("A", ("t",), [("First",), ("Second",)])
    assert serialize_table(table) == ["first", "second"]


def test_csv_roundtrip(tmp_path):
    table = Table("A", ("title", "color"), [("iphone, 8", "silver"), ("galaxy", "black")])
    path = tmp_path / "a.csv"
    write_table_csv(table, path)
    loaded = read_table_csv(path)
    assert loaded.name == "a"
    assert loaded.schema == table.schema
    assert loaded.row(0) == table.row(0)  # comma inside a value survives


def test_read_missing_csv_raises(tmp_path):
    with pytest.raises(DataError):
        read_table_csv(tmp_path / "missing.csv")


def test_read_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_table_csv(path)


def test_dataset_roundtrip(tmp_path, handmade_dataset):
    directory = save_dataset(handmade_dataset, tmp_path / "handmade")
    loaded = load_dataset(directory)
    assert loaded.name == handmade_dataset.name
    assert loaded.num_sources == handmade_dataset.num_sources
    assert loaded.num_entities == handmade_dataset.num_entities
    assert loaded.ground_truth == handmade_dataset.ground_truth
    assert loaded.schema == handmade_dataset.schema


def test_load_dataset_requires_metadata(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_roundtrip_preserves_generated_dataset(tmp_path, geo_tiny):
    directory = save_dataset(geo_tiny, tmp_path / "geo")
    loaded = load_dataset(directory)
    assert loaded.num_entities == geo_tiny.num_entities
    assert loaded.ground_truth == geo_tiny.ground_truth


def _unused_type_check() -> MultiTableDataset:  # pragma: no cover - typing aid
    raise NotImplementedError


def _corrupt(directory, case):
    """Damage one file of a saved dataset; returns the file name the error must name."""
    truth = directory / "ground_truth.json"
    if case == "metadata-json":
        (directory / "metadata.json").write_text("{not json", encoding="utf-8")
        return "metadata.json"
    if case == "csv-utf8":
        (directory / "A.csv").write_bytes(b"title,color\n\xff\xfe bad,red\n")
        return "A.csv"
    members = {
        "truth-json": None,
        "member-not-a-pair": [["A", 0, 1], ["B", 0]],
        "index-not-an-integer": [["A", "zero"], ["B", 0]],
        "index-a-float": [["A", 1.5], ["B", 0]],
        "unknown-table": [["Z", 0], ["B", 0]],
        "index-past-the-end": [["A", 99], ["B", 0]],
        "negative-index": [["A", -1], ["B", 0]],
    }[case]
    truth.write_text("[[" if members is None else json.dumps([members]), encoding="utf-8")
    return "ground_truth.json"


@pytest.mark.parametrize(
    "case",
    [
        "metadata-json", "truth-json", "csv-utf8", "member-not-a-pair", "index-not-an-integer",
        "index-a-float", "unknown-table", "index-past-the-end", "negative-index",
    ],
)
def test_a_malformed_dataset_directory_is_a_data_error(tmp_path, handmade_dataset, capsys, case):
    """``match DIR`` prints ``error:`` naming the file and exits 2, never a traceback."""
    from repro.cli import main as cli_main

    directory = save_dataset(handmade_dataset, tmp_path / "handmade")
    assert sorted(handmade_dataset.tables) == ["A", "B", "C"]
    named = _corrupt(directory, case)
    with pytest.raises(DataError, match=named):
        load_dataset(directory)
    capsys.readouterr()
    assert cli_main(["match", str(directory)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
