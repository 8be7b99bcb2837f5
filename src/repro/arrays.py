"""Flat-array (CSR) index helpers shared by the columnar engines.

The merge/prune engine, the n-gram hasher and Algorithm 1's column splice all
gather variable-length ranges out of flat arrays; this module holds the one
prefix-sum idiom they share, plus the sort-free dedups of int64 key streams
and of token-string streams.
"""

from __future__ import annotations

import numpy as np


def csr_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions of the concatenated ranges ``[starts[i], starts[i]+counts[i])``."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(counts) - counts
    return np.repeat(np.asarray(starts, dtype=np.int64) - cum, counts) + np.arange(total)


def dedup_sorted_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted unique of a **non-negative** int64 key stream, destructively.

    ``keys`` (scrambled in place — pass a fresh array) comes back as its
    ascending unique values: one in-place ``sort`` plus a neighbour mask,
    never numpy >= 2.4's hash-table ``np.unique``, ~25x slower at ~1M keys.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys
    keys.sort()
    fresh = np.ones(keys.shape[0], dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def unique_inverse(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(tokens, return_inverse=True)`` of a 1-d string array, sort-free.

    numpy argsorts an object array with a Python ``<`` per comparison; here a
    set dedups the stream, only the distinct strings are sorted, and a dict
    ranks every occurrence. Same sorted object array, same int64 inverse.
    """
    items = tokens.tolist()
    distinct = sorted(set(items))
    rank = {token: i for i, token in enumerate(distinct)}
    inverse = np.fromiter(map(rank.__getitem__, items), dtype=np.int64, count=len(items))
    return np.array(distinct, dtype=object), inverse
