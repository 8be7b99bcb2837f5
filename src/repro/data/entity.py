"""Entity and entity-reference primitives.

An *entity* is one record of one source table: an ordered mapping from
attribute names to string values, plus a globally unique :class:`EntityRef`
identifying where it came from. The paper's symbol table (Table I) writes an
entity as ``e = {(attr_j, val_j) | 1 <= j <= p}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..exceptions import SchemaError


@dataclass(frozen=True, order=True)
class EntityRef:
    """Globally unique identifier of a record: (source table name, row index)."""

    source: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source}#{self.index}"


@dataclass(frozen=True)
class Entity:
    """A single record with its provenance.

    Attributes:
        ref: where the record lives (table name and row index).
        values: mapping from attribute name to (string) value. Missing values
            are represented as empty strings so serialization stays trivial.
    """

    ref: EntityRef
    values: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(self.values.keys())

    def value(self, attribute: str) -> str:
        """Return the value of ``attribute`` or raise :class:`SchemaError`."""
        try:
            return self.values[attribute]
        except KeyError as exc:
            raise SchemaError(f"entity {self.ref} has no attribute {attribute!r}") from exc

    def get(self, attribute: str, default: str = "") -> str:
        """Return the value of ``attribute`` or ``default`` if absent."""
        return self.values.get(attribute, default)

    def items(self) -> Iterator[tuple[str, str]]:
        """Iterate over ``(attribute, value)`` pairs in schema order."""
        return iter(self.values.items())

    def __len__(self) -> int:
        return len(self.values)
