"""Relational table abstraction used throughout the reproduction.

A :class:`Table` is a named, schema-typed collection of string records. It is
intentionally simple — the library never needs SQL semantics, only column
access, sampling, and column shuffling (for Algorithm 1).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import DataError, SchemaError
from .entity import Entity, EntityRef


class Table:
    """A single source table with a fixed schema.

    Args:
        name: table (source) name; becomes the ``source`` of every
            :class:`EntityRef` in the table.
        schema: ordered attribute names shared by every row.
        rows: sequence of value sequences (or mappings) matching the schema.

    Raises:
        DataError: if a row's arity does not match the schema.
    """

    def __init__(
        self,
        name: str,
        schema: Sequence[str],
        rows: Iterable[Sequence[str] | Mapping[str, str]] = (),
    ) -> None:
        if not name:
            raise DataError("table name must be non-empty")
        if not schema:
            raise SchemaError("table schema must contain at least one attribute")
        if len(set(schema)) != len(schema):
            raise SchemaError(f"duplicate attribute names in schema {list(schema)}")
        self.name = name
        self.schema: tuple[str, ...] = tuple(schema)
        self._rows: list[tuple[str, ...]] = []
        for row in rows:
            self.append(row)

    # ------------------------------------------------------------------ rows
    def append(self, row: Sequence[str] | Mapping[str, str]) -> EntityRef:
        """Append a row and return the :class:`EntityRef` assigned to it."""
        if isinstance(row, Mapping):
            missing = [a for a in self.schema if a not in row]
            if missing:
                raise DataError(f"row missing attributes {missing} for table {self.name!r}")
            values = tuple(str(row[a]) for a in self.schema)
        else:
            if len(row) != len(self.schema):
                raise DataError(
                    f"row arity {len(row)} does not match schema arity "
                    f"{len(self.schema)} for table {self.name!r}"
                )
            values = tuple(str(v) for v in row)
        self._rows.append(values)
        return EntityRef(self.name, len(self._rows) - 1)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities())

    def row(self, index: int) -> tuple[str, ...]:
        """Return the raw value tuple at ``index``."""
        try:
            return self._rows[index]
        except IndexError as exc:
            raise DataError(f"row index {index} out of range for table {self.name!r}") from exc

    def entity(self, index: int) -> Entity:
        """Return the :class:`Entity` at ``index``."""
        values = self.row(index)
        return Entity(EntityRef(self.name, index), dict(zip(self.schema, values)))

    def entities(self) -> list[Entity]:
        """Return all rows as :class:`Entity` objects."""
        return [self.entity(i) for i in range(len(self._rows))]

    def refs(self) -> list[EntityRef]:
        """Return the refs of all rows in order."""
        return [EntityRef(self.name, i) for i in range(len(self._rows))]

    # --------------------------------------------------------------- columns
    def column(self, attribute: str) -> list[str]:
        """Return all values of one attribute, in row order."""
        try:
            pos = self.schema.index(attribute)
        except ValueError as exc:
            raise SchemaError(f"table {self.name!r} has no attribute {attribute!r}") from exc
        return [row[pos] for row in self._rows]

    def with_column_shuffled(self, attribute: str, rng: np.random.Generator) -> "Table":
        """Return a copy of the table with one column's values permuted.

        This is the core operation of Algorithm 1 (automated attribute
        selection): shuffling a *significant* attribute should move the
        embeddings much more than shuffling an insignificant one.
        """
        pos = self.schema.index(attribute) if attribute in self.schema else -1
        if pos < 0:
            raise SchemaError(f"table {self.name!r} has no attribute {attribute!r}")
        permutation = rng.permutation(len(self._rows))
        shuffled_values = [self._rows[j][pos] for j in permutation]
        new_rows = [
            tuple(shuffled_values[i] if k == pos else value for k, value in enumerate(row))
            for i, row in enumerate(self._rows)
        ]
        clone = Table(self.name, self.schema)
        clone._rows = new_rows
        return clone

    def sample(self, ratio: float, rng: np.random.Generator) -> "Table":
        """Return a random sample of the rows (at least one row)."""
        if not 0 < ratio <= 1:
            raise DataError("sample ratio must be in (0, 1]")
        count = max(1, int(round(len(self._rows) * ratio)))
        indices = rng.choice(len(self._rows), size=min(count, len(self._rows)), replace=False)
        clone = Table(self.name, self.schema)
        clone._rows = [self._rows[int(i)] for i in sorted(indices)]
        return clone

    # --------------------------------------------------------------- helpers
    @staticmethod
    def concat(tables: Sequence["Table"], name: str = "concat") -> "Table":
        """Concatenate tables sharing a schema into a single table.

        Used by Algorithm 1, which scores attributes on the union of all
        source tables.
        """
        if not tables:
            raise DataError("cannot concatenate zero tables")
        schema = tables[0].schema
        for table in tables[1:]:
            if table.schema != schema:
                raise SchemaError(
                    f"cannot concatenate tables with schemas {schema} and {table.schema}"
                )
        clone = Table(name, schema)
        for table in tables:
            clone._rows.extend(table._rows)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(name={self.name!r}, rows={len(self)}, schema={list(self.schema)})"
