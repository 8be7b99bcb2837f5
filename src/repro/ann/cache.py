"""Cross-level ANN index reuse for the merge hierarchy.

Hierarchical merging (Algorithm 2) and incremental matching rebuild a fresh
ANN index over the carried-forward side of every two-table merge even when
most of its vectors are unchanged. :class:`IndexCache` removes that rebuild
in the two cases where reuse is *exactly* equivalent to building from
scratch:

* **exact hit** — the requested vector matrix is byte-identical to one a
  cached index was built over (e.g. an odd leftover table carried to the next
  hierarchy level, or an integrated table that absorbed no new pairs): the
  cached index is returned as-is.
* **prefix hit** — a cached index's matrix is a byte-identical *prefix* of
  the requested matrix and the backend supports incremental insertion
  (``extend`` + ``clone``, currently HNSW and brute force): the cached index
  is cloned and only the tail rows are inserted. Because
  ``build(v).extend(w)`` is byte-identical to ``build([v; w])`` (the level
  RNG stream continues across the two calls), the result matches a fresh
  build bit for bit. This is the common shape after a merge that matched no
  (or only right-side) items: the output table is ``[left rows; new rows]``.

Entries are keyed by a *params key* (resolved backend + metric + index
hyper-parameters — indexes built with different knobs are never shared) plus
a content fingerprint (BLAKE2b over the raw vector bytes). Matrices that
merely overlap (rows dropped or replaced mid-table) are rebuilt from scratch:
an approximate-reuse path would change mutual-pair output, which the
reproduction treats as non-negotiable.

The cache lives in memory only: snapshots do not persist it, and a restored
matcher starts with an empty one. The merge level loop keeps all cache
traffic (:meth:`IndexCache.plan` and its ``commit``) on its own thread in
serial side order and sends only the build bodies to workers, so LRU order,
and with it which entries are evicted, is deterministic. Bookkeeping still
happens under a lock; builds run outside it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from ..exceptions import ConfigurationError
from .base import NearestNeighborIndex


def index_params_key(backend: str, metric: str, kwargs: dict) -> tuple:
    """Canonical cache params key for an index build: ``(backend, metric, sorted kwargs)``."""
    return (backend, metric, tuple(sorted(kwargs.items())))


def fingerprint_vectors(vectors: np.ndarray) -> str:
    """Cheap content fingerprint of a vector matrix (shape + BLAKE2b of bytes).

    The bytes are hashed in place through a flat ``uint8`` view (equal to
    ``vectors.tobytes()``), so fingerprinting a plane copies nothing.
    """
    vectors = np.ascontiguousarray(vectors)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(vectors.shape).encode())
    digest.update(str(vectors.dtype).encode())
    digest.update(vectors.reshape(-1).view(np.uint8))
    return digest.hexdigest()


@dataclass
class _CacheEntry:
    params_key: Hashable
    fingerprint: str
    vectors: np.ndarray
    index: NearestNeighborIndex


@dataclass
class IndexCacheStats:
    """Reuse counters (``saved_rows`` = rows whose insertion was skipped)."""

    exact_hits: int = 0
    prefix_hits: int = 0
    misses: int = 0
    saved_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "exact_hits": self.exact_hits,
            "prefix_hits": self.prefix_hits,
            "misses": self.misses,
            "saved_rows": self.saved_rows,
        }


@dataclass
class IndexCache:
    """LRU cache of built ANN indexes with exact and prefix-extend reuse."""

    max_entries: int = 8
    stats: IndexCacheStats = field(default_factory=IndexCacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self._entries: OrderedDict[tuple[Hashable, str], _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        vectors: np.ndarray,
        build: Callable[[], NearestNeighborIndex],
        *,
        params_key: Hashable = (),
    ) -> NearestNeighborIndex:
        """Return an index over ``vectors``, reusing cached work when exact.

        The returned index must be treated as **read-only**: an exact hit
        hands back the cached object itself (possibly shared with other
        callers), so mutating it — e.g. calling ``extend`` directly — would
        corrupt the cache's fingerprint-to-index mapping. To grow a cached
        index, call ``get_or_build`` with the grown matrix and let the cache
        take the clone-and-extend path.

        Args:
            vectors: the matrix the index must cover, row-aligned.
            build: zero-argument builder invoked on a cache miss.
            params_key: hashable description of everything that shapes the
                index besides its vectors (backend, metric, hyper-parameters).
        """
        work, commit = self.plan(vectors, build, params_key=params_key)
        return commit(work())

    def plan(
        self,
        vectors: np.ndarray,
        build: Callable[[], NearestNeighborIndex],
        *,
        params_key: Hashable = (),
    ) -> "tuple[Callable[[], NearestNeighborIndex], Callable[[NearestNeighborIndex], NearestNeighborIndex]]":
        """:meth:`get_or_build` split at its lock boundary: ``(work, commit)``.

        The lookup happens here. ``work()`` is the lock-free body — the cached
        index, a clone-and-extend of a prefix entry, or ``build()`` — and may
        run on a worker thread; ``commit(index)`` records the statistics and
        the LRU touch / put. The merge level loop keeps ``plan`` and
        ``commit`` on its own thread, in serial side order, so LRU order (and
        so eviction) never follows thread completion order.
        """
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float32))
        digest = fingerprint_vectors(vectors)
        with self._lock:
            entry = self._entries.get((params_key, digest))
            prefix = None if entry is not None else self._find_prefix_entry(params_key, vectors)
        if entry is not None:
            stat, saved, work = "exact_hits", int(vectors.shape[0]), lambda: entry.index
            vectors = entry.vectors
        elif prefix is not None:
            stat, saved = "prefix_hits", int(prefix.vectors.shape[0])
            work = lambda: prefix.index.clone().extend(vectors[saved:])  # type: ignore[attr-defined]
        else:
            stat, saved, work = "misses", 0, build

        def commit(index: NearestNeighborIndex) -> NearestNeighborIndex:
            with self._lock:
                setattr(self.stats, stat, getattr(self.stats, stat) + 1)
                self.stats.saved_rows += saved
            self._put(params_key, digest, vectors, index)
            return index

        return work, commit

    def _find_prefix_entry(self, params_key: Hashable, vectors: np.ndarray) -> _CacheEntry | None:
        """Longest cached entry whose matrix is a byte-identical prefix of ``vectors``.

        Caller must hold the lock; the returned entry's arrays are never
        mutated in place, so they remain valid after release.
        """
        best: _CacheEntry | None = None
        for entry in self._entries.values():
            if entry.params_key != params_key:
                continue
            cached = entry.vectors
            rows = cached.shape[0]
            if (
                not hasattr(entry.index, "extend")
                or not hasattr(entry.index, "clone")
                or cached.ndim != vectors.ndim
                or cached.shape[1:] != vectors.shape[1:]
                or rows == 0
                or rows >= vectors.shape[0]
                or (best is not None and rows <= best.vectors.shape[0])
            ):
                continue
            # Cheap first/last row screen before the full byte comparison.
            if not np.array_equal(cached[0], vectors[0]) or not np.array_equal(
                cached[rows - 1], vectors[rows - 1]
            ):
                continue
            if np.array_equal(cached, vectors[:rows]):
                best = entry
        return best

    def _put(
        self,
        params_key: Hashable,
        digest: str,
        vectors: np.ndarray,
        index: NearestNeighborIndex,
    ) -> None:
        with self._lock:
            key = (params_key, digest)
            self._entries[key] = _CacheEntry(
                params_key=params_key, fingerprint=digest, vectors=vectors, index=index
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = IndexCacheStats()
