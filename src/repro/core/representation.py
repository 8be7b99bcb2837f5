"""Entity representation: serialization + sentence encoding for whole tables.

This is stage (I) of the pipeline (Figure 3). The representer owns the
encoder, serializes every record (optionally restricted to the attributes
selected by Algorithm 1), and produces one embedding matrix per source table
plus an :class:`EmbeddingStore` — a flat column-store over every encoded row
that the pruning stage batch-gathers from. The store also reads as a
``ref -> vector`` mapping, which is how the baselines and the centroid
ablation use it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..arrays import unique_inverse
from ..config import RepresentationConfig
from ..data.dataset import MultiTableDataset
from ..data.entity import EntityRef
from ..data.serialization import serialize_table
from ..data.table import Table
from ..embedding import CachingEncoder, HashedNGramEncoder
from ..exceptions import DataError
from ..text.tokenizer import TokenTable, word_tokens_batch
from .parallel import ParallelExecutor


@dataclass
class TableEmbeddings:
    """Embeddings of one table's rows, aligned with the table's row order."""

    table_name: str
    refs: list[EntityRef]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.refs)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (same buffer, no copy)."""
    view = array.view()
    view.flags.writeable = False
    return view


class EmbeddingStore(Mapping):
    """Flat column-store of every encoded row with vectorized row resolution.

    One float32 block per source table (the table's embedding matrix, shared,
    not copied) plus per-source base offsets, fixed when the block registers.
    A row number is ``base[source] + index`` into the blocks laid end to end
    in registration order; no concatenated matrix is ever built, so each
    vector is resident once. Rows resolve arithmetically because
    :meth:`repro.data.table.Table.refs` enumerates refs as
    ``(name, 0..n-1)``; :meth:`add_table` validates that contract.

    The store implements the read-only ``Mapping[EntityRef, np.ndarray]``
    protocol of the dict it replaced (``store[ref]`` returns the same row view
    the dict held), while :meth:`member_rows` resolves whole member batches
    into one int64 row-number array and :meth:`take` gathers those rows out
    of the blocks, block by block.

    A registered block never changes: the store holds a read-only view of
    it, so a write through :meth:`blocks` or ``store[ref]`` raises, and the
    snapshot digest the store remembers per block (:meth:`block_digest`)
    cannot go stale. A verified snapshot load hands each block over unread
    with its recorded digest (:meth:`defer_block_check`): :meth:`take`,
    :meth:`blocks` and ``store[ref]`` check a block the first time they hand
    out its bytes, once, and a mismatch raises before any byte is used.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, np.ndarray] = {}
        self._block_digests: dict[str, str] = {}
        self._unchecked: dict[str, tuple[Callable[[], object], threading.Lock]] = {}
        self._bases: dict[str, int] = {}
        self._num_rows = 0

    @classmethod
    def from_embeddings(cls, embeddings: "dict[str, TableEmbeddings]") -> "EmbeddingStore":
        store = cls()
        for table_embeddings in embeddings.values():
            store.add_table(table_embeddings)
        return store

    def add_table(self, embeddings: "TableEmbeddings") -> None:
        """Register one table's embedding matrix (refs must be ``(name, 0..n-1)``)."""
        name = embeddings.table_name
        vectors = np.asarray(embeddings.vectors)
        refs = embeddings.refs
        if len(refs) != vectors.shape[0]:
            raise DataError(f"table {name!r} has {len(refs)} refs for {vectors.shape[0]} rows")
        for i, ref in enumerate(refs):
            if ref.source != name or ref.index != i:
                raise DataError(
                    f"embedding store requires canonical refs; got {ref} at row {i} of {name!r}"
                )
        self._register(name, vectors)

    def _register(self, name: str, block: np.ndarray) -> None:
        """Adopt ``block`` read-only as source ``name``'s rows, after every earlier block."""
        if name in self._blocks:
            raise DataError(f"source {name!r} is already registered in the embedding store")
        self._bases[name] = self._num_rows  # set before the block, which readers look up first
        self._blocks[name] = _read_only(block)
        self._num_rows += int(block.shape[0])

    # --------------------------------------------------------------- snapshot
    def blocks(self) -> "dict[str, np.ndarray]":
        """Per-source embedding matrices in registration order (read-only views, not copies)."""
        return {name: self.checked_block(name) for name in self._blocks}

    def stored_blocks(self) -> "dict[str, np.ndarray]":
        """:meth:`blocks` without running deferred checks: for snapshot code, which
        checks a block before it writes it and refs an unread one unread."""
        return dict(self._blocks)

    def checked_block(self, name: str) -> np.ndarray:
        """Block ``name``, once its deferred check (if any) has passed; concurrent
        readers wait for one check instead of each running it."""
        pending = self._unchecked.get(name)
        if pending is not None:
            check, lock = pending
            with lock:
                if name in self._unchecked:
                    check()
                    del self._unchecked[name]
        return self._blocks[name]

    def defer_block_check(self, name: str, digest: str, check: Callable[[], object]) -> None:
        """Remember ``digest`` for block ``name`` unread; ``check`` hashes the block
        and raises on a mismatch, the first time its bytes are handed out."""
        self._block_digests[name] = digest
        self._unchecked[name] = (check, threading.Lock())

    def block_digest(self, name: str) -> "str | None":
        """The remembered (or deferred) snapshot digest of block ``name``; None before a hash."""
        return self._block_digests.get(name)

    def remember_block_digest(self, name: str, digest: str) -> str:
        """Remember block ``name``'s digest (its bytes never change); returns ``digest``."""
        self._block_digests[name] = digest
        return digest

    @classmethod
    def from_blocks(cls, blocks: "dict[str, np.ndarray]") -> "EmbeddingStore":
        """Rebuild a store from :meth:`blocks` output (snapshot restore path).

        Registration order follows the dict order; matrices are adopted as
        read-only views (possibly over a memory-mapped file — the store never
        mutates a registered block, only gathers rows out of it).
        """
        store = cls()
        for name, matrix in blocks.items():
            matrix = np.asarray(matrix)
            if matrix.ndim != 2:
                raise DataError(f"embedding block {name!r} must be 2-d, got {matrix.ndim}-d")
            store._register(name, matrix)
        return store

    # ------------------------------------------------------- row resolution
    def member_rows(
        self, sources: Sequence[str], member_sources: np.ndarray, member_indices: np.ndarray
    ) -> np.ndarray:
        """Row numbers (blocks laid end to end) of flat CSR member lists.

        ``member_sources`` indexes into ``sources`` (an
        :class:`~repro.core.merging.ItemTable`'s source-name table) and
        ``member_indices`` holds source-row indices; no per-member Python
        work happens here.
        """
        bases = np.empty(len(sources), dtype=np.int64)
        counts = np.empty(len(sources), dtype=np.int64)
        for i, name in enumerate(sources):
            block = self._blocks.get(name)
            if block is None:
                raise KeyError(EntityRef(name, 0))
            bases[i] = self._bases[name]
            counts[i] = block.shape[0]
        member_sources = np.asarray(member_sources, dtype=np.int64)
        member_indices = np.asarray(member_indices, dtype=np.int64)
        if member_sources.size:
            invalid = (member_indices < 0) | (member_indices >= counts[member_sources])
            if invalid.any():
                bad = int(np.flatnonzero(invalid)[0])
                raise KeyError(
                    EntityRef(str(sources[int(member_sources[bad])]), int(member_indices[bad]))
                )
        return bases[member_sources] + member_indices

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The vectors of row numbers ``rows``, gathered out of each block in place.

        Equal to ``np.concatenate(list(self.blocks().values()))[rows]`` for
        in-range ``rows``, without the concatenated copy: each block fills
        the output positions of its own rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        names = list(self._blocks)
        blocks = [self._blocks[name] for name in names]
        starts = np.array([self._bases[name] for name in names], dtype=np.int64)
        out = np.empty((rows.size, blocks[0].shape[1]), dtype=np.result_type(*blocks))
        # An empty block shares its start with the next one; "right" picks the later.
        owner = np.searchsorted(starts, rows, side="right") - 1
        for b in np.unique(owner).tolist():
            positions = np.flatnonzero(owner == b)
            out[positions] = self.checked_block(names[b])[rows[positions] - starts[b]]
        return out

    # ------------------------------------------------------ Mapping protocol
    def __getitem__(self, ref: EntityRef) -> np.ndarray:
        block = self._blocks.get(ref.source)
        if block is None or not 0 <= ref.index < block.shape[0]:
            raise KeyError(ref)
        return self.checked_block(ref.source)[ref.index]

    def __iter__(self) -> Iterator[EntityRef]:
        for name, block in self._blocks.items():
            for i in range(block.shape[0]):
                yield EntityRef(name, i)

    def __len__(self) -> int:
        return self._num_rows


class EntityRepresenter:
    """Serializes and encodes tables with the hashed n-gram encoder (built, or injected)."""

    def __init__(
        self,
        config: RepresentationConfig | None = None,
        encoder: HashedNGramEncoder | None = None,
    ) -> None:
        self.config = config or RepresentationConfig()
        self.config.validate()
        inner = encoder or HashedNGramEncoder(dimension=self.config.dimension, seed=self.config.seed)
        self.encoder = CachingEncoder(inner)
        self._fitted = False
        # fit()'s corpus id space, pooled by encode_dataset(): the sorted
        # distinct tokens and, per table, ((attributes, table, rows), ids,
        # counts). The guard holds the table *object* (its identity cannot be
        # recycled) and its row count (a table grown since is re-serialized).
        self._fit_tokens: list[str] = []
        self._fit_token_ids: dict[str, tuple[tuple, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------- fit
    def fit(self, dataset: MultiTableDataset, attributes: Sequence[str] | None = None) -> "EntityRepresenter":
        """Fit the encoder's IDF statistics on the serialized dataset (one corpus dedup)."""
        key = tuple(attributes) if attributes is not None else None
        tables = dataset.table_list()
        max_tokens = self.config.max_sequence_length
        texts = (serialize_table(table, attributes, max_tokens=max_tokens) for table in tables)
        token_tables = [word_tokens_batch(table_texts) for table_texts in texts]
        corpus = TokenTable.concat(token_tables)
        tokens, token_ids = unique_inverse(corpus.tokens)
        self.encoder.fit_token_ids(tokens, token_ids, corpus.counts)
        self._fit_tokens = tokens.tolist()
        splits = np.cumsum([token_table.tokens.size for token_table in token_tables])[:-1]
        self._fit_token_ids = {
            table.name: ((key, table, len(table)), ids, token_table.counts)
            for table, token_table, ids in zip(tables, token_tables, np.split(token_ids, splits))
        }
        self._fitted = True
        return self

    # ---------------------------------------------------------------- encode
    def encode_table(self, table: Table, attributes: Sequence[str] | None = None) -> TableEmbeddings:
        """Serialize and encode one table into a :class:`TableEmbeddings`."""
        texts = serialize_table(table, attributes, max_tokens=self.config.max_sequence_length)
        vectors = self.encoder.encode(texts)
        return TableEmbeddings(table_name=table.name, refs=table.refs(), vectors=vectors)

    def encode_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Encode raw texts through the exact-text cache (``query_many``, the baselines)."""
        return self.encoder.encode(texts)

    def encode_dataset(
        self,
        dataset: MultiTableDataset,
        attributes: Sequence[str] | None = None,
        executor: ParallelExecutor | None = None,
    ) -> dict[str, TableEmbeddings]:
        """Encode every table; fits the encoder first if not already fitted.

        Tables :meth:`fit` stashed pool from its corpus ids, one task each of
        a flat map on ``executor`` (inline when None or serial); any other
        table takes :meth:`encode_table`. Same bytes either way.
        """
        if not self._fitted:
            self.fit(dataset, attributes)
        key = tuple(attributes) if attributes is not None else None
        # Drop the stash as it is consumed: one pooling per table, and the
        # representer does not pin the corpus ids (or the source tables).
        stash, self._fit_token_ids = self._fit_token_ids, {}
        jobs = {
            table.name: entry[1:]
            for table in dataset.table_list()
            if (entry := stash.get(table.name)) and entry[0] == (key, table, len(table))
        }
        inner = self.encoder.inner
        vectors, weights = inner.token_vectors_and_weights(self._fit_tokens if jobs else [])
        self._fit_tokens = []
        matrices = inner.encode_token_id_tables(list(jobs.values()), vectors, weights, executor)
        pooled = dict(zip(jobs, matrices))
        return {
            table.name: TableEmbeddings(table.name, table.refs(), pooled[table.name])
            if table.name in pooled else self.encode_table(table, attributes)
            for table in dataset.table_list()
        }
