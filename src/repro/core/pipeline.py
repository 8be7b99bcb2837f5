"""The MultiEM pipeline: representation → hierarchical merging → pruning.

This is the library's main entry point::

    from repro import MultiEM, load_benchmark

    dataset = load_benchmark("music-20", profile="bench")
    result = MultiEM().match(dataset)
    print(result.num_tuples, result.selected_attributes)

The pipeline follows Figure 3 of the paper. Each stage is timed separately so
Figure 5 (per-module running time) can be regenerated, and each module can be
disabled for the Table IV ablations (``w/o EER`` and ``w/o DP``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..config import MultiEMConfig
from ..data.dataset import MultiTableDataset
from ..embedding.hashed import HashedNGramEncoder
from .attribute_selection import AttributeSelectionResult, select_attributes
from .merging import ItemTable, MergeStats, hierarchical_merge_tables
from .parallel import ParallelExecutor
from .pruning import prune_item_table
from .representation import EmbeddingStore, EntityRepresenter
from .result import MatchResult, StageTimings


@dataclass
class FittedStages:
    """What stages S, R and M leave behind for pruning (P) and matcher state.

    ``timings`` has the S, R and M fields filled; pruning is the caller's.
    """

    representer: EntityRepresenter
    attributes: tuple[str, ...]
    selection: AttributeSelectionResult | None
    store: EmbeddingStore
    integrated: ItemTable
    merge_stats: MergeStats
    timings: StageTimings


def fit_stages(
    dataset: MultiTableDataset,
    config: MultiEMConfig,
    executor: ParallelExecutor,
    *,
    encoder: HashedNGramEncoder | None = None,
    representative: str = "mean",
) -> FittedStages:
    """Stages S, R and M of Figure 3, timed: the one place they run in order.

    :class:`MultiEM`, :class:`~repro.core.incremental.IncrementalMultiEM` and
    the design ablations all call this and add their own pruning; a new entry
    point should too. ``representative`` picks the merged items'
    representative vector.
    """
    timings = StageTimings()
    representer = EntityRepresenter(config.representation, encoder=encoder)

    # Stage S: automated attribute selection (Algorithm 1). Optional —
    # disabling it gives the "w/o EER" ablation where all attributes are
    # serialized with the vanilla encoder.
    selection: AttributeSelectionResult | None = None
    attributes = dataset.schema
    if config.representation.attribute_selection and len(attributes) > 1:
        started = time.perf_counter()
        selection = select_attributes(
            dataset, representer, config.representation, executor=executor
        )
        timings.attribute_selection = time.perf_counter() - started
        attributes = selection.selected

    # Stage R: serialize and encode every table (pooled on the executor).
    started = time.perf_counter()
    representer.fit(dataset, attributes)
    embeddings = representer.encode_dataset(dataset, attributes, executor=executor)
    store = EmbeddingStore.from_embeddings(embeddings)
    timings.representation = time.perf_counter() - started

    # Stage M: table-wise hierarchical merging (Algorithms 2-3), run on
    # flat ItemTables end to end; items only materialize after pruning.
    started = time.perf_counter()
    item_tables = [ItemTable.from_embeddings(embeddings[table.name]) for table in dataset.table_list()]
    integrated, merge_stats = hierarchical_merge_tables(
        item_tables, config.merging, executor=executor, representative=representative
    )
    timings.merging = time.perf_counter() - started
    return FittedStages(representer, attributes, selection, store, integrated, merge_stats, timings)


class MultiEM:
    """Unsupervised multi-table entity matcher (the paper's contribution).

    Args:
        config: pipeline configuration; defaults mirror the paper's settings.
        encoder: optional pre-built sentence encoder, used in place of one
            built from the representation config's dimension and seed.
    """

    def __init__(
        self, config: MultiEMConfig | None = None, encoder: HashedNGramEncoder | None = None
    ) -> None:
        self.config = config or MultiEMConfig()
        self.config.validate()
        self._encoder_override = encoder

    # ------------------------------------------------------------------ run
    def match(self, dataset: MultiTableDataset) -> MatchResult:
        """Run the full pipeline on a dataset and return the predicted tuples.

        The parallel executor's persistent worker pool is shared by the
        merging and pruning stages and released when the run finishes.
        """
        with ParallelExecutor(self.config.parallel) as executor:
            fitted = fit_stages(dataset, self.config, executor, encoder=self._encoder_override)
            # Stage P: density-based pruning (Algorithm 4), batched off the flat table.
            started = time.perf_counter()
            pruned = prune_item_table(
                fitted.integrated, fitted.store, self.config.pruning, executor=executor
            )
            fitted.timings.pruning = time.perf_counter() - started
            method = "MultiEM (parallel)" if executor.is_parallel else "MultiEM"

        stats = fitted.merge_stats
        return MatchResult(
            tuples={frozenset(item.members) for item in pruned},
            selected_attributes=fitted.attributes,
            significance_scores=dict(fitted.selection.scores) if fitted.selection else {},
            timings=fitted.timings,
            method=method,
            metadata={
                "num_candidate_tuples": int((fitted.integrated.sizes >= 2).sum()),
                "merge_levels": stats.levels,
                "merge_pair_merges": stats.pair_merges,
                "matched_pairs_per_level": list(stats.matched_pairs_per_level),
                "config": self.config,
            },
        )

    # ------------------------------------------------------------- variants
    def without_eer(self) -> "MultiEM":
        """Return a copy configured as the "w/o EER" ablation."""
        return MultiEM(
            self.config.with_overrides(representation={"attribute_selection": False}),
            encoder=self._encoder_override,
        )

    def without_pruning(self) -> "MultiEM":
        """Return a copy configured as the "w/o DP" ablation."""
        return MultiEM(
            self.config.with_overrides(pruning={"enabled": False}),
            encoder=self._encoder_override,
        )
