"""Extension from matched pairs to matched tuples (Algorithm 5).

Two-table EM methods output matched *pairs*; the multi-table setting is
evaluated on matched *tuples*. Algorithm 5 converts pairs to tuples by taking,
for every entity, the set of entities it is (transitively) matched with —
which is exactly the connected component of the pair graph containing it.
This conversion is where transitive conflicts surface: one wrong pair can
glue two otherwise-correct tuples together.
"""

from __future__ import annotations

from typing import Iterable

from ..clustering.connected_components import match_groups
from ..data.dataset import MatchTuple
from ..data.entity import EntityRef


def pairs_to_tuples(pairs: Iterable[tuple[EntityRef, EntityRef]]) -> set[MatchTuple]:
    """Algorithm 5: group matched pairs into matched tuples.

    Every connected component of the pair graph with at least two members
    becomes one predicted tuple.
    """
    groups = match_groups(pairs, min_size=2)
    return {frozenset(group) for group in groups}
