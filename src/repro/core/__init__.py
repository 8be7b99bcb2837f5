"""Core MultiEM pipeline: representation, attribute selection, merging, pruning.

The merging and pruning stages run on flat column-store tables
(:class:`~repro.core.merging.ItemTable` +
:class:`~repro.core.representation.EmbeddingStore`) with a byte-identity
contract: the vectorized engines reproduce the historical per-item
implementations bit for bit (see the ``merging`` / ``pruning`` module
docstrings and ``tests/core/test_flat_equivalence.py``). Both stages take
only the flat types; :class:`~repro.core.merging.MergeItem` is the record
pruning returns.
"""

from .attribute_selection import AttributeSelectionResult, select_attributes
from .incremental import IncrementalMultiEM
from .merging import (
    ItemTable,
    MergeItem,
    MergeStats,
    hierarchical_merge_tables,
    merge_item_tables,
    weighted_mean_vector,
)
from .parallel import ParallelExecutor, partition
from .pipeline import MultiEM
from .pruning import EntityClassification, classify_entities, prune_item_table
from .representation import EmbeddingStore, EntityRepresenter, TableEmbeddings
from .result import MatchResult, StageTimings, tuples_to_pairs

__all__ = [
    "MultiEM",
    "IncrementalMultiEM",
    "MatchResult",
    "StageTimings",
    "tuples_to_pairs",
    "EmbeddingStore",
    "EntityRepresenter",
    "TableEmbeddings",
    "AttributeSelectionResult",
    "select_attributes",
    "ItemTable",
    "MergeItem",
    "MergeStats",
    "merge_item_tables",
    "hierarchical_merge_tables",
    "weighted_mean_vector",
    "EntityClassification",
    "classify_entities",
    "prune_item_table",
    "ParallelExecutor",
    "partition",
]
