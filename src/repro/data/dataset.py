"""Multi-table dataset container with ground-truth match tuples.

A :class:`MultiTableDataset` is the unit of work for multi-table entity
matching: a set of source tables sharing a schema plus (optionally) the
ground-truth matched tuples used for evaluation (Definition 2 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..exceptions import DataError, SchemaError
from .entity import Entity, EntityRef
from .table import Table

#: A matched tuple: a group of >= 2 entity refs that denote the same
#: real-world entity (Definition 2).
MatchTuple = frozenset[EntityRef]


def make_tuple(refs: Iterable[EntityRef]) -> MatchTuple:
    """Normalize an iterable of refs into a canonical matched tuple."""
    tup = frozenset(refs)
    if len(tup) < 2:
        raise DataError("a matched tuple must contain at least two entities")
    return tup


@dataclass
class MultiTableDataset:
    """A named collection of source tables plus ground truth.

    Attributes:
        name: dataset name (e.g. ``"music-20"``).
        tables: source tables, keyed by table name. All tables share a schema.
        ground_truth: set of matched tuples. Empty for unlabeled data.
        metadata: free-form provenance (generator parameters, scaling profile).
    """

    name: str
    tables: dict[str, Table]
    ground_truth: set[MatchTuple] = field(default_factory=set)
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tables:
            raise DataError("a dataset needs at least one table")
        schemas = {table.schema for table in self.tables.values()}
        if len(schemas) != 1:
            raise SchemaError(f"tables disagree on schema: {sorted(schemas)}")
        for key, table in self.tables.items():
            if key != table.name:
                raise DataError(f"table registered under {key!r} but named {table.name!r}")
        for tup in self.ground_truth:
            if len(tup) < 2:
                raise DataError("ground-truth tuples must have size >= 2")

    # ------------------------------------------------------------ properties
    @property
    def schema(self) -> tuple[str, ...]:
        """Shared schema of every source table."""
        return next(iter(self.tables.values())).schema

    @property
    def num_sources(self) -> int:
        """Number of source tables (the paper's ``S``)."""
        return len(self.tables)

    @property
    def num_entities(self) -> int:
        """Total number of records across all sources."""
        return sum(len(table) for table in self.tables.values())

    @property
    def num_truth_tuples(self) -> int:
        """Number of ground-truth matched tuples."""
        return len(self.ground_truth)

    @property
    def num_truth_pairs(self) -> int:
        """Number of ground-truth matched pairs implied by the tuples."""
        return sum(len(tup) * (len(tup) - 1) // 2 for tup in self.ground_truth)

    # -------------------------------------------------------------- accessors
    def table_list(self) -> list[Table]:
        """Tables in a deterministic (name-sorted) order."""
        return [self.tables[name] for name in sorted(self.tables)]

    def entity(self, ref: EntityRef) -> Entity:
        """Resolve a ref to its :class:`Entity`."""
        try:
            table = self.tables[ref.source]
        except KeyError as exc:
            raise DataError(f"unknown source table {ref.source!r}") from exc
        return table.entity(ref.index)

    def all_refs(self) -> list[EntityRef]:
        """All entity refs across all tables, sorted by (source, index)."""
        refs: list[EntityRef] = []
        for table in self.table_list():
            refs.extend(table.refs())
        return refs

    def truth_pairs(self) -> set[tuple[EntityRef, EntityRef]]:
        """Expand ground-truth tuples into the set of matched pairs.

        Pairs are canonically ordered so the set has no duplicates.
        """
        pairs: set[tuple[EntityRef, EntityRef]] = set()
        for tup in self.ground_truth:
            members = sorted(tup)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    pairs.add((a, b))
        return pairs

    def statistics(self) -> dict[str, object]:
        """Summary statistics matching Table III's columns."""
        return {
            "name": self.name,
            "sources": self.num_sources,
            "attributes": len(self.schema),
            "entities": self.num_entities,
            "tuples": self.num_truth_tuples,
            "pairs": self.num_truth_pairs,
        }

    # ----------------------------------------------------------- construction
    @staticmethod
    def from_tables(
        name: str,
        tables: Sequence[Table],
        ground_truth: Iterable[Iterable[EntityRef]] = (),
        metadata: Mapping[str, object] | None = None,
    ) -> "MultiTableDataset":
        """Build a dataset from a list of tables and raw ground-truth groups."""
        truth = {make_tuple(group) for group in ground_truth}
        return MultiTableDataset(
            name=name,
            tables={table.name: table for table in tables},
            ground_truth=truth,
            metadata=dict(metadata or {}),
        )

    def subset(self, table_names: Sequence[str], name: str | None = None) -> "MultiTableDataset":
        """Restrict the dataset to a subset of its source tables.

        Ground-truth tuples are intersected with the remaining sources and
        kept only if at least two members survive.
        """
        missing = [n for n in table_names if n not in self.tables]
        if missing:
            raise DataError(f"unknown tables {missing}")
        keep = set(table_names)
        truth: set[MatchTuple] = set()
        for tup in self.ground_truth:
            remaining = frozenset(ref for ref in tup if ref.source in keep)
            if len(remaining) >= 2:
                truth.add(remaining)
        return MultiTableDataset(
            name=name or f"{self.name}-subset",
            tables={n: self.tables[n] for n in table_names},
            ground_truth=truth,
            metadata=dict(self.metadata),
        )
