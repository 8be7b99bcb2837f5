"""Deterministic row-to-shard assignment from LSH signatures or record tokens.

Two key families:

* ``"lsh"`` — :func:`lsh_row_keys` hashes each representative vector into
  one sign-random-projection signature per hash table; each signature is
  mixed with its table id through a splitmix64 finalizer and reduced mod
  ``num_shards``.
* ``"token"`` — each record is serialized (:func:`serialize_entity`) and
  tokenized (:func:`word_tokens`); every distinct token of at least
  ``MIN_TOKEN_LENGTH`` characters hashes to a shard through BLAKE2b.

A row's keys then *vote*: the plurality shard owns the row; a tie between
shards, or a row with no keys at all, goes to the spill set (owner id
``num_shards``). Owner choice is pure load balancing — the boundary pass
guarantees byte-identical merge output for **any** owner assignment — so the
vote only has to be deterministic, which both hashes are (no RNG, no dict
order).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from ..config import MergingConfig
from ..data.serialization import serialize_entity
from ..data.table import Table
from ..exceptions import ShardError
from ..text.tokenizer import word_tokens

#: Shortest word token that counts as a row's key (shorter ones are too common).
MIN_TOKEN_LENGTH = 3

#: Hash tables (one signature, so one shard vote, each) of the ``"lsh"`` key.
LSH_NUM_TABLES = 8
#: Hyperplanes, so signature bits, per hash table of the ``"lsh"`` key.
LSH_NUM_BITS = 12


def lsh_row_keys(vectors: np.ndarray, config: MergingConfig) -> np.ndarray:
    """Per-row sign-random-projection signatures, ``(n, LSH_NUM_TABLES)`` int64.

    Column ``t`` holds bit ``b`` set where a row lies on the positive side of
    table ``t``'s hyperplane ``b``. Every table's ``(LSH_NUM_BITS, d)``
    float32 hyperplanes come from one ``np.random.default_rng(config.seed)``
    stream, drawn in table order.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ShardError("lsh_row_keys expects a 2-d array of vectors")
    rng = np.random.default_rng(config.seed)
    weights = 1 << np.arange(LSH_NUM_BITS, dtype=np.int64)
    keys = np.empty((vectors.shape[0], LSH_NUM_TABLES), dtype=np.int64)
    for t in range(LSH_NUM_TABLES):
        planes = rng.normal(size=(LSH_NUM_BITS, vectors.shape[1])).astype(np.float32)
        keys[:, t] = ((vectors @ planes.T) > 0).astype(np.int64) @ weights
    return keys


def token_row_keys(
    table: Table,
    attributes: Sequence[str] | None = None,
    *,
    min_token_length: int = MIN_TOKEN_LENGTH,
) -> list[list[str]]:
    """Per-row token keys.

    Each row's keys are the deduplicated word tokens of its serialized record
    of at least ``min_token_length`` characters, sorted for a deterministic
    vote order.
    """
    keys: list[list[str]] = []
    for entity in table.entities():
        text = serialize_entity(entity, attributes)
        keys.append(
            sorted({token for token in set(word_tokens(text)) if len(token) >= min_token_length})
        )
    return keys


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64, wrapping arithmetic)."""
    z = values.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def shard_votes_from_lsh_keys(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """One shard vote per (row, hash table): mix the signature with its table id.

    The per-table salt keeps table ``t``'s vote decorrelated from table
    ``t'``'s even when both hash a row to the same signature value.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    salts = (np.arange(keys.shape[1], dtype=np.uint64) + np.uint64(1)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    mixed = _splitmix64(keys.view(np.uint64) ^ salts[None, :])
    return (mixed % np.uint64(num_shards)).astype(np.int64)


def shard_of_token(token: str, num_shards: int) -> int:
    """The shard one blocking token votes for (BLAKE2b of the token bytes)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


def assign_owners(votes: "np.ndarray | Sequence[Sequence[int]]", num_shards: int) -> np.ndarray:
    """Plurality vote per row → ``int32`` owner array (ties and no-key rows spill).

    ``votes`` is either an ``(n, t)`` integer matrix (LSH: one vote per hash
    table) or a ragged list of per-row vote lists (token keys). Owner ``s``
    in ``[0, num_shards)`` means row is core to shard ``s``; ``num_shards``
    is the spill set.
    """
    if num_shards < 1:
        raise ShardError("num_shards must be >= 1")
    spill = num_shards
    if isinstance(votes, np.ndarray):
        counts = np.zeros((votes.shape[0], num_shards), dtype=np.int64)
        for s in range(num_shards):
            counts[:, s] = (votes == s).sum(axis=1)
        best = counts.max(axis=1)
        owners = counts.argmax(axis=1).astype(np.int32)
        tied = (counts == best[:, None]).sum(axis=1) > 1
        owners[tied | (best == 0)] = spill
        return owners
    owners = np.empty(len(votes), dtype=np.int32)
    for i, row_votes in enumerate(votes):
        if not row_votes:
            owners[i] = spill
            continue
        counts = np.bincount(np.asarray(row_votes, dtype=np.int64), minlength=num_shards)
        best = int(counts.max())
        if int((counts == best).sum()) > 1:
            owners[i] = spill
        else:
            owners[i] = int(counts.argmax())
    return owners


def lsh_owners(vectors: np.ndarray, config: MergingConfig, num_shards: int) -> np.ndarray:
    """Owner array for one table's representative vectors under the LSH key."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.shape[0] == 0:
        return np.zeros(0, dtype=np.int32)
    votes = shard_votes_from_lsh_keys(lsh_row_keys(vectors, config), num_shards)
    return assign_owners(votes, num_shards)


def token_owners(
    table: Table,
    num_shards: int,
    attributes: Sequence[str] | None = None,
) -> np.ndarray:
    """Owner array for one raw table's rows under the token-blocking key."""
    votes = [
        [shard_of_token(token, num_shards) for token in row_keys]
        for row_keys in token_row_keys(table, attributes)
    ]
    return assign_owners(votes, num_shards)
