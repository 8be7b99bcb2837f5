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

from ..config import MultiEMConfig
from ..data.dataset import MultiTableDataset
from ..embedding.base import SentenceEncoder
from .attribute_selection import AttributeSelectionResult, select_attributes
from .merging import ItemTable, hierarchical_merge_tables
from .parallel import ParallelExecutor
from .pruning import prune_item_table
from .representation import EmbeddingStore, EntityRepresenter
from .result import MatchResult, StageTimings


class MultiEM:
    """Unsupervised multi-table entity matcher (the paper's contribution).

    Args:
        config: pipeline configuration; defaults mirror the paper's settings.
        encoder: optional pre-built sentence encoder (overrides the config's
            encoder choice); useful for injecting a custom embedding model.
    """

    def __init__(self, config: MultiEMConfig | None = None, encoder: SentenceEncoder | None = None) -> None:
        self.config = config or MultiEMConfig()
        self.config.validate()
        self._encoder_override = encoder

    # ------------------------------------------------------------------ run
    def match(self, dataset: MultiTableDataset) -> MatchResult:
        """Run the full pipeline on a dataset and return the predicted tuples.

        The parallel executor's persistent worker pool is shared by the
        merging and pruning stages and released when the run finishes.
        """
        executor = ParallelExecutor(self.config.parallel)
        try:
            return self._match(dataset, executor)
        finally:
            executor.close()

    def _match(self, dataset: MultiTableDataset, executor: ParallelExecutor) -> MatchResult:
        timings = StageTimings()
        representer = EntityRepresenter(self.config.representation, encoder=self._encoder_override)

        # Stage S: automated attribute selection (Algorithm 1). Optional —
        # disabling it gives the "w/o EER" ablation where all attributes are
        # serialized with the vanilla encoder.
        selection: AttributeSelectionResult | None = None
        schema = dataset.schema
        if self.config.representation.attribute_selection and len(schema) > 1:
            started = time.perf_counter()
            selection = select_attributes(dataset, representer, self.config.representation)
            timings.attribute_selection = time.perf_counter() - started
            attributes: tuple[str, ...] = selection.selected
        else:
            attributes = schema

        # Stage R: serialize and encode every table.
        started = time.perf_counter()
        representer.fit(dataset, attributes)
        embeddings = representer.encode_dataset(dataset, attributes)
        store = EmbeddingStore.from_embeddings(embeddings)
        timings.representation = time.perf_counter() - started

        # Stage M: table-wise hierarchical merging (Algorithms 2-3), run on
        # flat ItemTables end to end; items only materialize after pruning.
        merging_config = self.config.merging
        started = time.perf_counter()
        item_tables = [ItemTable.from_embeddings(embeddings[table.name]) for table in dataset.table_list()]
        item_owners = None
        if merging_config.shards > 1:
            # Sharded plane: partition rows by blocking key, run the same
            # hierarchy with per-shard query fan-out, and carry the owner
            # array into owner-grouped pruning. Output bytes are identical
            # to the unsharded path (see repro.shard).
            from ..shard import build_shard_plan, sharded_hierarchical_merge

            plan = build_shard_plan(
                merging_config,
                item_tables=item_tables,
                raw_tables=dataset.table_list(),
                attributes=attributes,
            )
            integrated, merge_stats, item_owners = sharded_hierarchical_merge(
                item_tables, plan.owners, merging_config, executor=executor
            )
        else:
            integrated, merge_stats = hierarchical_merge_tables(
                item_tables, merging_config, executor=executor
            )
        num_candidates = int((integrated.sizes >= 2).sum())
        timings.merging = time.perf_counter() - started

        # Stage P: density-based pruning (Algorithm 4), batched off the flat table.
        started = time.perf_counter()
        pruned = prune_item_table(
            integrated, store, self.config.pruning, executor=executor, owners=item_owners
        )
        timings.pruning = time.perf_counter() - started

        tuples = {frozenset(item.members) for item in pruned if item.size >= 2}
        method = "MultiEM (parallel)" if executor.is_parallel else "MultiEM"
        return MatchResult(
            tuples=tuples,
            selected_attributes=attributes,
            significance_scores=dict(selection.scores) if selection else {},
            timings=timings,
            method=method,
            metadata={
                "num_candidate_tuples": num_candidates,
                "merge_levels": merge_stats.levels,
                "merge_pair_merges": merge_stats.pair_merges,
                "matched_pairs_per_level": list(merge_stats.matched_pairs_per_level),
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

    def parallelized(self, max_workers: int | None = None) -> "MultiEM":
        """Return the MultiEM(parallel) variant of this pipeline."""
        return MultiEM(
            self.config.with_overrides(parallel={"enabled": True, "max_workers": max_workers}),
            encoder=self._encoder_override,
        )
