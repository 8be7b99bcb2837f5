"""Reading and writing datasets on disk.

Datasets are stored as a directory of CSV files (one per source table) plus a
``ground_truth.json`` file listing the matched tuples and a ``metadata.json``
file. This mirrors how the public benchmarks the paper uses are distributed
(one CSV per source, one mapping file).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from ..exceptions import DataError
from .dataset import MatchTuple, MultiTableDataset
from .entity import EntityRef
from .table import Table

_GROUND_TRUTH_FILE = "ground_truth.json"
_METADATA_FILE = "metadata.json"


def _check_table_names(names: Iterable[str], where: object) -> None:
    """Refuse a table name that would not stay one file inside the dataset directory."""
    for name in names:
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise DataError(f"{where}: table name {name!r} is not a plain file name")


def write_table_csv(table: Table, path: str | Path) -> None:
    """Write one table to a CSV file with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema)
        for i in range(len(table)):
            writer.writerow(table.row(i))


def read_table_csv(path: str | Path, name: str | None = None) -> Table:
    """Read one table from a CSV file written by :func:`write_table_csv`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"table file {path} does not exist")
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            schema = next(reader)
            table = Table(name or path.stem, schema)
            for row in reader:
                if row:
                    table.append(row)
        except StopIteration as exc:
            raise DataError(f"table file {path} is empty") from exc
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"table file {path} is not a UTF-8 CSV: {exc}") from exc
    return table


def save_dataset(dataset: MultiTableDataset, directory: str | Path) -> Path:
    """Persist a dataset to ``directory`` (one CSV per table + JSON sidecars)."""
    directory = Path(directory)
    _check_table_names((table.name for table in dataset.table_list()), directory)
    directory.mkdir(parents=True, exist_ok=True)
    for table in dataset.table_list():
        write_table_csv(table, directory / f"{table.name}.csv")
    truth_payload = [
        sorted([ref.source, ref.index] for ref in tup) for tup in sorted(dataset.ground_truth, key=sorted)
    ]
    (directory / _GROUND_TRUTH_FILE).write_text(json.dumps(truth_payload), encoding="utf-8")
    metadata = dict(dataset.metadata)
    metadata["name"] = dataset.name
    metadata["tables"] = [table.name for table in dataset.table_list()]
    (directory / _METADATA_FILE).write_text(json.dumps(metadata, default=str), encoding="utf-8")
    return directory


def _read_json(path: Path, kind: type):
    """The JSON document at ``path``, which must be a ``kind``; :class:`DataError` otherwise."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, kind):
        raise DataError(f"{path} must hold a JSON {kind.__name__}, not {type(payload).__name__}")
    return payload


def _truth_ref(member, path: Path, tables: dict[str, Table]) -> EntityRef:
    """One ``[source, index]`` ground-truth member, checked against the loaded tables."""
    if (
        not isinstance(member, list)
        or len(member) != 2
        or not isinstance(member[0], str)
        or not isinstance(member[1], int)
        or isinstance(member[1], bool)
    ):
        raise DataError(f"{path}: ground-truth member {member!r} is not a [source, index] pair")
    source, index = member
    if source not in tables:
        raise DataError(f"{path}: ground-truth member {member!r} names an unknown table")
    if not 0 <= index < len(tables[source]):
        raise DataError(f"{path}: ground-truth member {member!r} is past the end of its table")
    return EntityRef(source, index)


def load_dataset(directory: str | Path) -> MultiTableDataset:
    """Load a dataset previously written by :func:`save_dataset`.

    Malformed files, table names that are not plain file names (empty, ``.``,
    ``..``, or holding ``/``, ``\\`` or NUL) and ground truth naming rows that
    do not exist raise :class:`DataError` naming the file.
    """
    directory = Path(directory)
    metadata_path = directory / _METADATA_FILE
    if not metadata_path.exists():
        raise DataError(f"{directory} does not contain {_METADATA_FILE}")
    metadata = _read_json(metadata_path, dict)
    name = metadata.pop("name", directory.name)
    table_names = metadata.pop("tables", None)
    if table_names is None:
        table_names = sorted(p.stem for p in directory.glob("*.csv"))
    if not isinstance(table_names, list) or not all(isinstance(t, str) for t in table_names):
        raise DataError(f"{metadata_path}: 'tables' must be a list of table names")
    _check_table_names(table_names, metadata_path)
    tables = {table: read_table_csv(directory / f"{table}.csv", table) for table in table_names}
    truth_path = directory / _GROUND_TRUTH_FILE
    ground_truth: list[MatchTuple] = []
    if truth_path.exists():
        for group in _read_json(truth_path, list):
            if not isinstance(group, list):
                raise DataError(f"{truth_path}: ground-truth group {group!r} is not a list")
            ground_truth.append(frozenset(_truth_ref(m, truth_path, tables) for m in group))
    return MultiTableDataset.from_tables(name, list(tables.values()), ground_truth, metadata)


def refs_to_json(groups: Iterable[Iterable[EntityRef]]) -> list[list[list[object]]]:
    """Convert groups of refs into a JSON-serializable structure."""
    return [sorted([ref.source, ref.index] for ref in group) for group in groups]
