"""Incremental multi-table matching: fold new source tables into an existing result.

The paper's conclusion lists scaling the merging to ever-larger data as future
work; the most common practical variant is *incremental* arrival — a new
marketplace feed shows up after the catalogue has already been integrated.
Re-running the whole hierarchy is wasteful: merging the new table into the
existing integrated table is a single two-table merge plus a pruning pass,
exactly the primitives Algorithms 3 and 4 already provide.

Usage::

    matcher = IncrementalMultiEM(paper_default_config("music-20"))
    matcher.fit(initial_dataset)              # full hierarchical run
    result = matcher.add_table(new_table)     # one two-table merge + pruning
"""

from __future__ import annotations

from ..ann.cache import IndexCache  # bench compat: item 1 deletes
from ..config import MultiEMConfig
from ..data.dataset import MultiTableDataset
from ..data.table import Table
from ..exceptions import DataError, SchemaError
from .merging import ItemTable, merge_item_tables
from .parallel import ParallelExecutor
from .pipeline import fit_stages
from .pruning import prune_item_table
from .representation import EmbeddingStore, EntityRepresenter
from .result import MatchResult, StageTimings


class IncrementalMultiEM:
    """MultiEM variant that supports adding source tables one at a time.

    State lives in flat form: one :class:`~repro.core.merging.ItemTable` for
    the integrated table and one
    :class:`~repro.core.representation.EmbeddingStore` for the encoded rows,
    so repeated ``add_table`` calls never rebuild per-item Python objects.
    """

    def __init__(self, config: MultiEMConfig | None = None) -> None:
        self.config = config or MultiEMConfig()
        self.config.validate()
        self._representer: EntityRepresenter | None = None
        self._attributes: tuple[str, ...] = ()
        self._table: ItemTable = ItemTable.empty()
        self._store: EmbeddingStore = EmbeddingStore()
        self._known_sources: set[str] = set()
        self._schema: tuple[str, ...] = ()
        self._executor = ParallelExecutor(self.config.parallel)
        # On-disk base of the last save/load (path, payload digest, depth,
        # session meta, captured array references) — what makes save() emit
        # an append-only delta instead of a full rewrite. Maintained by
        # repro.store.session; None until the first full save (or load).
        self._base: dict | None = None

    # ------------------------------------------------------------------- fit
    @property
    def is_fitted(self) -> bool:
        return self._representer is not None

    def fit(self, dataset: MultiTableDataset) -> MatchResult:
        """Run the full pipeline on the initial dataset and keep its state."""
        fitted = fit_stages(dataset, self.config, self._executor)
        # Commit state only after every stage succeeded, so a failed refit
        # leaves the previous fit (and its snapshot lineage) intact.
        self._base = None  # a refit starts a new snapshot lineage
        self._schema = dataset.schema
        self._representer = fitted.representer
        self._attributes = fitted.attributes
        self._store = fitted.store
        self._table = fitted.integrated
        self._known_sources = set(dataset.tables)
        return self._result()

    # ------------------------------------------------------------ add_table
    def add_table(self, table: Table) -> MatchResult:
        """Merge one new source table into the existing integrated state."""
        if not self.is_fitted:
            raise DataError("call fit() with an initial dataset before add_table()")
        if table.schema != self._schema:
            raise SchemaError(
                f"new table schema {table.schema} does not match fitted schema {self._schema}"
            )
        if table.name in self._known_sources:
            raise DataError(f"source {table.name!r} was already merged")
        assert self._representer is not None
        embeddings = self._representer.encode_table(table, self._attributes)
        new_table = ItemTable.from_embeddings(embeddings)
        merged, _ = merge_item_tables(
            self._table, new_table, self.config.merging, executor=self._executor
        )
        # Commit state only after the merge succeeded, so a failed add_table
        # (e.g. OOM at scale) leaves the matcher consistent and retryable.
        self._store.add_table(embeddings)
        self._table = merged
        self._known_sources.add(table.name)
        return self._result()

    # ---------------------------------------------------------------- result
    def _result(self) -> MatchResult:
        pruned = prune_item_table(
            self._table, self._store, self.config.pruning, executor=self._executor
        )
        method = (
            "IncrementalMultiEM (parallel)" if self._executor.is_parallel else "IncrementalMultiEM"
        )
        return MatchResult(
            tuples={frozenset(item.members) for item in pruned},
            selected_attributes=self._attributes,
            timings=StageTimings(),
            method=method,
            metadata={"num_sources": len(self._known_sources), "num_items": len(self._table)},
        )

    @property
    def known_sources(self) -> tuple[str, ...]:
        """Names of the sources merged so far, sorted."""
        return tuple(sorted(self._known_sources))

    @property
    def integrated_table(self) -> ItemTable:
        """The current integrated item table (flat form, read-only by contract)."""
        return self._table

    # --------------------------------------------------------------- snapshot
    def save(self, path, mode: str = "auto") -> dict:
        """Snapshot the fitted state to ``path`` (see :mod:`repro.store`).

        ``mode`` selects the persistence shape:

        * ``"full"`` — a self-contained snapshot, always.
        * ``"delta"`` — an append-only chain segment holding only what
          changed since the last save/load (requires a recorded base;
          must be written next to it).
        * ``"auto"`` (default) — a delta whenever a base exists and ``path``
          is not the base itself (overwriting the base in place falls back
          to a full rewrite rather than corrupting the lineage), else full.

        Returns the digest record the snapshot stores; load it back with
        :meth:`repro.store.MatchSession.load` (serving) or
        :func:`repro.store.load_matcher` (full matcher, ``add_table`` ready)
        — both resolve chains transparently.
        """
        import os

        from ..exceptions import StoreError
        from ..store.session import save_session, save_session_delta

        if mode not in ("auto", "full", "delta"):
            raise StoreError(f"unknown save mode {mode!r}; use 'auto', 'full' or 'delta'")
        if mode == "auto":
            overwrites_base = (
                self._base is not None
                and os.path.abspath(os.fspath(path)) == self._base["path"]
            )
            mode = "delta" if self._base is not None and not overwrites_base else "full"
        if mode == "delta":
            return save_session_delta(self, path)
        return save_session(self, path)

    def snapshot_state(self) -> dict:
        """The complete fitted state, as one documented bundle.

        Consumed by :mod:`repro.store.session`; every value is either a
        config object, a flat-array structure with its own codec, or a plain
        JSON-able scalar/sequence.
        """
        if not self.is_fitted:
            raise DataError("cannot snapshot an unfitted matcher; call fit() first")
        return {
            "config": self.config,
            "encoder": self._representer.encoder if self._representer else None,
            "attributes": self._attributes,
            "schema": self._schema,
            "table": self._table,
            "store": self._store,
            "known_sources": sorted(self._known_sources),
            "index_cache": IndexCache(),  # bench compat: item 1 deletes
        }

    @classmethod
    def from_snapshot_state(
        cls,
        *,
        config: MultiEMConfig,
        encoder,
        attributes: tuple[str, ...],
        schema: tuple[str, ...],
        table: ItemTable,
        store: EmbeddingStore,
        known_sources,
    ) -> "IncrementalMultiEM":
        """Rehydrate a fitted matcher from restored state (snapshot load path).

        ``encoder`` is the restored *inner* sentence encoder; the representer
        re-wraps it in its caching layer exactly as :meth:`fit` would have.
        """
        matcher = cls(config)
        matcher._representer = EntityRepresenter(config.representation, encoder=encoder)
        matcher._representer._fitted = True
        matcher._attributes = tuple(attributes)
        matcher._schema = tuple(schema)
        matcher._table = table
        matcher._store = store
        matcher._known_sources = set(known_sources)
        return matcher

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        """Release the persistent worker pool (idempotent).

        The matcher stays usable afterwards — the executor lazily re-creates
        its pool if another ``fit`` / ``add_table`` needs one.
        """
        self._executor.close()

    def __enter__(self) -> "IncrementalMultiEM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
