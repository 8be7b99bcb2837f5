"""Random-hyperplane locality-sensitive hashing index.

A lighter-weight alternative ANN backend: vectors are bucketed by the sign
pattern of random hyperplane projections; queries probe their own bucket (and
optionally neighbouring buckets at Hamming distance 1) and re-rank candidates
exactly. Useful for the design-ablation benchmark comparing ANN backends.

Buckets are stored CSR-style per hash table (sorted signature array + offsets
into one flat node array) so the probe loop is a batched ``searchsorted``
over every query × probe signature instead of a Python dict lookup per probe.
Candidate collection is flat as well: every hit bucket's slice is gathered
into one per-table ``(query, node)`` key stream, de-duplicated and grouped by
query with a single ``np.unique`` + ``searchsorted``. The resulting flat CSR
(query → candidates) stream then re-ranks through the shared query engine
(:func:`repro.ann.engine.rerank_csr`): the native kernel's
gather + ``sgemv`` + top-k loop when available, a bucketed batched-matmul
numpy pass otherwise — both bit-identical to the historical per-row
``row_distances`` + ``argsort`` loop on tie-free data, with exact distance
ties now broken deterministically by candidate id (``REPRO_NATIVE=0`` forces
the numpy path; see :mod:`repro.ann.engine` for the byte-identity contract).
"""

from __future__ import annotations

import numpy as np

from ..arrays import csr_positions, dedup_sorted_keys
from ..exceptions import IndexError_
from . import engine
from .base import NearestNeighborIndex
from .distances import PreparedVectors


def hash_planes(dim: int, *, num_tables: int = 8, num_bits: int = 12, seed: int = 0) -> list[np.ndarray]:
    """The random hyperplanes an :class:`LSHIndex` draws for ``dim``-d vectors.

    One ``(num_bits, dim)`` float32 matrix per hash table, all drawn from a
    single ``np.random.default_rng(seed)`` stream in table order — exactly the
    draw :meth:`LSHIndex.build` performs, so external callers (the shard
    partitioner) hash into the same buckets as the index itself.
    """
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(num_bits, dim)).astype(np.float32) for _ in range(num_tables)]


def _plane_signature(planes: np.ndarray, vectors: np.ndarray, num_bits: int) -> np.ndarray:
    """Sign-pattern signature of ``vectors`` against one table's hyperplanes."""
    projections = vectors @ planes.T
    bits = (projections > 0).astype(np.int64)
    weights = 1 << np.arange(num_bits, dtype=np.int64)
    return bits @ weights


def bucket_keys(
    vectors: np.ndarray, *, num_tables: int = 8, num_bits: int = 12, seed: int = 0
) -> np.ndarray:
    """Per-row LSH bucket signatures, one column per hash table.

    Returns an ``(n, num_tables)`` int64 array where column ``t`` holds the
    signature an :class:`LSHIndex` built with the same ``(num_tables,
    num_bits, seed)`` would assign each row in hash table ``t`` — pinned equal
    to the index's internal bucketing by ``tests/ann/test_lsh_bucket_keys.py``.
    This is the stable public key the :mod:`repro.shard` partitioner hashes
    rows with.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise IndexError_("expected a 2-d array of vectors")
    planes = hash_planes(vectors.shape[1], num_tables=num_tables, num_bits=num_bits, seed=seed)
    keys = np.empty((vectors.shape[0], num_tables), dtype=np.int64)
    for t in range(num_tables):
        keys[:, t] = _plane_signature(planes[t], vectors, num_bits)
    return keys


class LSHIndex(NearestNeighborIndex):
    """Sign-random-projection LSH with multi-table hashing and exact re-ranking.

    Batched answers are independent of batch composition: bucket probing is a
    per-row sign pattern and the exact re-rank runs per candidate segment
    (GEMV-shaped slices, never a batch-shaped GEMM) — pinned by
    ``tests/serve/test_coalescer.py``.
    """

    batch_invariant = True

    def __init__(
        self,
        metric: str = "cosine",
        num_tables: int = 8,
        num_bits: int = 12,
        probe_neighbors: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if num_tables < 1:
            raise IndexError_("num_tables must be >= 1")
        if not 1 <= num_bits <= 63:  # signatures are int64 bit patterns
            raise IndexError_("num_bits must be in [1, 63]")
        self.num_tables = num_tables
        self.num_bits = num_bits
        self.probe_neighbors = probe_neighbors
        self.seed = seed
        self._planes: list[np.ndarray] = []
        # CSR bucket layout per hash table: sorted unique signatures, offsets
        # into the flat node array, and the nodes grouped by signature.
        self._bucket_signatures: list[np.ndarray] = []
        self._bucket_offsets: list[np.ndarray] = []
        self._bucket_nodes: list[np.ndarray] = []
        self._prepared: PreparedVectors | None = None
        # None = use the native re-rank when available; False/True force a
        # path (the native self-test compares both; REPRO_NATIVE=0 also
        # disables the kernel globally).
        self._use_native: bool | None = None

    def _signature(self, table: int, vectors: np.ndarray) -> np.ndarray:
        return _plane_signature(self._planes[table], vectors, self.num_bits)

    def build(self, vectors: np.ndarray) -> "LSHIndex":
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise IndexError_("expected a 2-d array of vectors")
        self._vectors = vectors
        self._prepared = PreparedVectors(vectors, self.metric)
        self._planes = hash_planes(
            vectors.shape[1], num_tables=self.num_tables, num_bits=self.num_bits, seed=self.seed
        )
        self._bucket_signatures = []
        self._bucket_offsets = []
        self._bucket_nodes = []
        for t in range(self.num_tables):
            signatures = self._signature(t, vectors)
            # Stable sort keeps nodes in insertion (row) order within each
            # bucket, matching the append order of the old dict layout.
            order = np.argsort(signatures, kind="stable")
            unique, counts = np.unique(signatures, return_counts=True)
            offsets = np.zeros(len(unique) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._bucket_signatures.append(unique)
            self._bucket_offsets.append(offsets)
            self._bucket_nodes.append(order.astype(np.int64))
        return self

    def _probe_signatures(self, signatures: np.ndarray) -> np.ndarray:
        """All probed signatures per query: own bucket plus Hamming-1 flips."""
        if not self.probe_neighbors:
            return signatures[:, None]
        flips = np.int64(1) << np.arange(self.num_bits, dtype=np.int64)
        return np.concatenate([signatures[:, None], signatures[:, None] ^ flips[None, :]], axis=1)

    def _candidate_keys(self, queries: np.ndarray) -> np.ndarray | None:
        """Raw candidate key stream for a query batch (pre-dedup, non-negative).

        Batched bucket lookup: one searchsorted per hash table covers every
        (query, probe) pair at once; each table's hit bucket slices are then
        gathered into one flat (query, node) stream — no per-row Python
        slice collection. Each (query, node) hit is encoded as the int64 key
        ``query * num_nodes + node``; the concatenated stream still contains
        cross-table/cross-probe duplicates (``None`` when nothing hit).
        """
        num_nodes = np.int64(self._vectors.shape[0])
        key_chunks: list[np.ndarray] = []
        for t in range(self.num_tables):
            buckets = self._bucket_signatures[t]
            if not len(buckets):
                continue
            probes = self._probe_signatures(self._signature(t, queries))
            positions = np.minimum(np.searchsorted(buckets, probes), len(buckets) - 1)
            valid = buckets[positions] == probes
            hit_rows, _ = np.nonzero(valid)
            hit_buckets = positions[valid]
            offsets = self._bucket_offsets[t]
            counts = offsets[hit_buckets + 1] - offsets[hit_buckets]
            if not int(counts.sum()):
                continue
            candidates = self._bucket_nodes[t][csr_positions(offsets[hit_buckets], counts)]
            key_chunks.append(np.repeat(hit_rows.astype(np.int64), counts) * num_nodes + candidates)
        if not key_chunks:
            return None
        return np.concatenate(key_chunks)

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k < 1:
            raise IndexError_("k must be >= 1")
        assert self._prepared is not None
        queries = np.asarray(queries, dtype=np.float32)
        num_queries = queries.shape[0]
        indices, distances = engine.alloc_topk(num_queries, k)
        prepared_queries = self._prepared.prepare_queries(queries)
        keys = self._candidate_keys(queries)
        if keys is None:
            return indices, distances
        # Sorted dedup of the key stream: one in-place sort + mask, same
        # output as ``np.unique`` but never numpy >= 2.4's hash-based path,
        # which is ~25x slower at this stream size and dominated the query.
        keys = dedup_sorted_keys(keys)
        num_nodes = np.int64(self._vectors.shape[0])
        # Decoded keys are (query, node) sorted lexicographically, so the
        # flat candidate array is already a per-query CSR stream with each
        # segment's candidates ascending — exactly the engine's contract.
        candidate_rows = keys // num_nodes
        flat_candidates = keys % num_nodes
        boundaries = np.searchsorted(candidate_rows, np.arange(num_queries + 1, dtype=np.int64))
        engine.rerank_csr(
            self._prepared,
            prepared_queries,
            flat_candidates,
            boundaries,
            k,
            indices,
            distances,
            use_native=self._use_native,
        )
        return indices, distances
