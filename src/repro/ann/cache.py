"""Bench compat (item 1 deletes): an exact-hit index cache; no production path makes one."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np


# bench compat: item 1 deletes
def index_params_key(backend: str, metric: str, kwargs: dict) -> tuple:
    """``(backend, metric, sorted kwargs)``: what shapes an index besides its vectors."""
    return (backend, metric, tuple(sorted(kwargs.items())))


# bench compat: item 1 deletes
class IndexCache:
    """Built indexes keyed by params key and vector bytes; ``max_entries`` is ignored."""

    def __init__(self, max_entries: int = 8) -> None:
        self.stats = SimpleNamespace(exact_hits=0, prefix_hits=0, misses=0, saved_rows=0)
        self._entries: dict = {}

    def get_or_build(self, vectors: np.ndarray, build, *, params_key=()):
        return self.plan(vectors, build, params_key=params_key)()

    def plan(self, vectors: np.ndarray, build, *, params_key=()):
        """Look up on the calling thread; returns the body yielding the index (may run anywhere)."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        digest = hashlib.blake2b(vectors.reshape(-1).view(np.uint8), digest_size=16).hexdigest()
        key = (params_key, vectors.shape, digest)
        if key in self._entries:
            self.stats.exact_hits += 1
            self.stats.saved_rows += vectors.shape[0]
            return lambda: self._entries[key]
        self.stats.misses += 1
        return lambda: self._entries.setdefault(key, build())
