"""State codecs: flat-array core objects ↔ snapshot (meta, arrays) bundles.

Every codec is a pure pair of functions::

    *_state(obj)            -> (meta, {relative_name: ndarray})
    *_from_state(meta, arrays)

where ``meta`` is a JSON-serializable tree and the arrays dict holds raw
numpy buffers. :func:`pack` / :func:`unpack` shuttle a bundle into / out of a
:class:`~repro.store.format.SnapshotWriter` / ``Snapshot`` under a name
prefix (the array-name list rides in the meta under ``"__arrays__"``), so
bundles nest — an :class:`~repro.ann.cache.IndexCache` entry embeds a whole
index bundle under an ``e{i}/index/`` prefix.

Restored arrays are adopted **verbatim** (zero-copy when the snapshot is
memory-mapped): a loaded object computes the exact bytes the saved one did —
CSR bucket tables, adjacency, and RNG states all round-trip as raw state.
The one exception is the prepared distance row statistics (normalized rows /
squared norms), which are a deterministic per-row function of the stored
vectors and are recomputed byte-identically on restore instead of being
persisted — they were the largest derived plane in every snapshot.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, fields
from typing import Mapping

import numpy as np

from ..ann.brute_force import BruteForceIndex
from ..ann.cache import IndexCache
from ..ann.hnsw import HNSWIndex
from ..ann.lsh import LSHIndex
from ..config import (
    RETIRED_KEYS,
    MergingConfig,
    MultiEMConfig,
    ParallelConfig,
    PruningConfig,
    RepresentationConfig,
)
from ..core.merging import ItemTable
from ..core.representation import EmbeddingStore
from ..exceptions import StoreError
from .delta import bytes_equal
from .format import (
    Snapshot,
    SnapshotWriter,
    string_table_arrays,
    strings_from_arrays,
    tag_tuples,
    untag_tuples,
)

logger = logging.getLogger("repro.store")


# ------------------------------------------------------------------- plumbing
def pack(writer: SnapshotWriter, prefix: str, state) -> dict:
    """Write a ``(meta, arrays)`` bundle under ``prefix``; returns the meta."""
    meta, arrays = state
    meta = dict(meta)
    meta["__arrays__"] = list(arrays)
    for name, array in arrays.items():
        writer.add_array(prefix + name, array)
    return meta


def unpack(snapshot: Snapshot, prefix: str, meta: dict) -> "dict[str, np.ndarray]":
    """Read back the arrays of a bundle written by :func:`pack`."""
    return {name: snapshot.array(prefix + name) for name in meta["__arrays__"]}


def unpack_arrays(
    arrays: "Mapping[str, np.ndarray]", prefix: str, meta: dict
) -> "dict[str, np.ndarray]":
    """:func:`unpack` against a flat logical-array mapping (chain restores)."""
    return {name: arrays[prefix + name] for name in meta["__arrays__"]}


def _prefixed(prefix: str, arrays: "Mapping[str, np.ndarray]") -> "dict[str, np.ndarray]":
    return {prefix + name: array for name, array in arrays.items()}


# ------------------------------------------------------------------ ItemTable
def item_table_state(table: ItemTable):
    """State bundle of a flat merge-item table."""
    return (
        {"type": "item_table", "sources": list(table.sources)},
        {
            "vectors": table.vectors,
            "member_sources": table.member_sources,
            "member_indices": table.member_indices,
            "member_offsets": table.member_offsets,
        },
    )


def item_table_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> ItemTable:
    return ItemTable(
        arrays["vectors"],
        arrays["member_sources"],
        arrays["member_indices"],
        arrays["member_offsets"],
        tuple(meta["sources"]),
    )


# ------------------------------------------------------------------ ShardPlan
def shard_plan_state(item_owners: np.ndarray, num_shards: int, shard_key: str):
    """State bundle of a sharded fit's owner assignment over the integrated table.

    One ``int32`` owner id per integrated item (``0..num_shards-1`` cores,
    ``num_shards`` spill); the key family and shard count ride in the meta so
    a restored matcher can sanity-check them against its config.
    """
    return (
        {"type": "shard_plan", "num_shards": int(num_shards), "shard_key": shard_key},
        {"item_owners": np.ascontiguousarray(item_owners, dtype=np.int32)},
    )


def shard_plan_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> np.ndarray:
    if meta.get("type") != "shard_plan":
        raise StoreError(f"expected a shard_plan bundle, got {meta.get('type')!r}")
    return arrays["item_owners"]


# ------------------------------------------------------------- EmbeddingStore
def embedding_store_state(store: EmbeddingStore):
    """State bundle of the flat embedding column store (one block per source)."""
    blocks = store.blocks()
    arrays = {f"block{i}": matrix for i, matrix in enumerate(blocks.values())}
    return {"type": "embedding_store", "tables": list(blocks)}, arrays


def embedding_store_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> EmbeddingStore:
    return EmbeddingStore.from_blocks(
        {name: arrays[f"block{i}"] for i, name in enumerate(meta["tables"])}
    )


# -------------------------------------------------------------------- indexes
_INDEX_TYPES = {"hnsw": HNSWIndex, "lsh": LSHIndex, "brute-force": BruteForceIndex}


def index_state(index):
    """State bundle of any snapshot-capable ANN index."""
    snapshot_state = getattr(index, "snapshot_state", None)
    if snapshot_state is None:
        raise StoreError(f"index type {type(index).__name__} does not support snapshots")
    return snapshot_state()


def index_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]"):
    cls = _INDEX_TYPES.get(meta.get("backend"))
    if cls is None:
        raise StoreError(f"unknown index backend {meta.get('backend')!r} in snapshot")
    return cls.from_snapshot_state(meta, dict(arrays))


# ----------------------------------------------------------------- IndexCache
def index_cache_state(cache: IndexCache):
    """State bundle of an index cache — entries in LRU order (oldest first).

    ``params_key`` tuples are JSON-tagged so they restore as *tuples* and
    hash-compare equal to the keys future lookups construct at runtime.
    """
    entries_meta = []
    arrays: dict[str, np.ndarray] = {}
    for i, (params_key, vectors, index) in enumerate(cache.snapshot()):
        index_meta, index_arrays = index_state(index)
        index_meta = dict(index_meta)
        index_meta["__arrays__"] = list(index_arrays)
        arrays[f"e{i}/vectors"] = vectors
        arrays.update(_prefixed(f"e{i}/index/", index_arrays))
        entries_meta.append({"params_key": tag_tuples(params_key), "index": index_meta})
    return (
        {"type": "index_cache", "max_entries": cache.max_entries, "entries": entries_meta},
        arrays,
    )


def _without_retired_index_kwargs(params_key):
    """A restored cache key minus index kwargs that no longer exist.

    ``merge_index_kwargs`` stopped emitting them, so an entry saved while
    they existed must key like a fresh build's to be hit again. Only the
    ``index_params_key`` shape is touched; any other key passes through.
    """
    if not (
        isinstance(params_key, tuple)
        and len(params_key) == 3
        and isinstance(params_key[2], tuple)
    ):
        return params_key
    backend, metric, items = params_key
    retired = RETIRED_KEYS["merging"]
    kept = tuple(
        item for item in items if not (isinstance(item, tuple) and item and item[0] in retired)
    )
    return (backend, metric, kept)


def index_cache_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]") -> IndexCache:
    cache = IndexCache(max_entries=meta["max_entries"])
    entries = []
    for i, entry_meta in enumerate(meta["entries"]):
        index_meta = entry_meta["index"]
        index_arrays = {
            name: arrays[f"e{i}/index/{name}"] for name in index_meta["__arrays__"]
        }
        entries.append(
            (
                _without_retired_index_kwargs(untag_tuples(entry_meta["params_key"])),
                arrays[f"e{i}/vectors"],
                index_from_state(index_meta, index_arrays),
            )
        )
    cache.seed(entries)
    return cache


# ------------------------------------------------------------------- encoders
def encoder_state(encoder):
    """State bundle of a fitted :class:`~repro.embedding.hashed.HashedNGramEncoder`.

    Accepts the pipeline's :class:`~repro.embedding.cache.CachingEncoder`
    wrapper too, unwrapped transparently: the exact-text cache is a
    rebuildable optimization, not state.
    """
    from ..embedding import CachingEncoder, HashedNGramEncoder

    if isinstance(encoder, CachingEncoder):
        encoder = encoder.inner
    if not isinstance(encoder, HashedNGramEncoder):
        raise StoreError(f"encoder type {type(encoder).__name__} does not support snapshots")
    meta = {
        "type": "encoder",
        "kind": "hashed-ngram",
        "dimension": encoder.dimension,
        "ngram_range": list(encoder.ngram_range),
        "max_tokens": encoder.max_tokens,
        "token_weight": encoder.token_weight,
        "use_idf": encoder.use_idf,
        "numeric_weight_floor": encoder.numeric_weight_floor,
        "seed": encoder.seed,
        "vocabulary": None,
    }
    arrays: dict[str, np.ndarray] = {}
    vocabulary = encoder._vocabulary
    if vocabulary is not None:
        tokens = sorted(vocabulary.token_to_index, key=vocabulary.token_to_index.get)
        meta["vocabulary"] = {"num_documents": vocabulary.num_documents}
        arrays.update(_prefixed("vocab/tokens", string_table_arrays(tokens)))
        arrays["vocab/df"] = np.fromiter(
            (vocabulary.document_frequency[token] for token in tokens),
            dtype=np.int64,
            count=len(tokens),
        )
    return meta, arrays


def encoder_from_state(meta: dict, arrays: "Mapping[str, np.ndarray]"):
    from ..embedding import HashedNGramEncoder

    if meta["kind"] == "tfidf-svd":
        raise StoreError(
            f"snapshot encoder kind {meta['kind']!r}: the TF-IDF+SVD encoder was removed;"
            " refit the matcher and save a new snapshot"
        )
    if meta["kind"] != "hashed-ngram":
        raise StoreError(f"unknown encoder kind {meta['kind']!r} in snapshot")
    encoder = HashedNGramEncoder(
        dimension=meta["dimension"],
        ngram_range=tuple(meta["ngram_range"]),
        max_tokens=meta["max_tokens"],
        token_weight=meta["token_weight"],
        use_idf=meta["use_idf"],
        numeric_weight_floor=meta["numeric_weight_floor"],
        seed=meta["seed"],
    )
    if meta["vocabulary"] is not None:
        from collections import Counter

        from ..text.vocab import Vocabulary

        tokens = strings_from_arrays(arrays, "vocab/tokens")
        df = arrays["vocab/df"].tolist()
        encoder._vocabulary = Vocabulary(
            token_to_index={token: i for i, token in enumerate(tokens)},
            document_frequency=Counter(dict(zip(tokens, df))),
            num_documents=meta["vocabulary"]["num_documents"],
        )
    return encoder


# --------------------------------------------------------------- delta pairing
def index_cache_pairing(new_state, base_state) -> "dict[str, str]":
    """Align cache entries of a new state onto a base state's segments.

    Returns a ``{new_name: base_name}`` pairing (bundle-relative ``e{j}/…``
    names) mapping each new entry onto the base entry it evolved from: the
    first byte-identical twin with the same params key, else the longest
    plausible prefix (same params key, fewer rows, matching first/last
    prefix rows — a cheap screen; the byte-exact row diff downstream decides
    what actually changed, so a miscast pairing can only cost bytes, never
    correctness). Unpaired entries diff against nothing and store outright.
    """
    new_meta, new_arrays = new_state
    base_meta, base_arrays = base_state
    pairing: dict[str, str] = {}
    used: set[int] = set()
    for j, entry in enumerate(new_meta["entries"]):
        new_vectors = new_arrays[f"e{j}/vectors"]
        exact = None
        best = None
        best_rows = 0
        for i, base_entry in enumerate(base_meta["entries"]):
            if i in used or base_entry["params_key"] != entry["params_key"]:
                continue
            base_vectors = base_arrays.get(f"e{i}/vectors")
            if (
                base_vectors is None
                or base_vectors.dtype != new_vectors.dtype
                or base_vectors.shape[1:] != new_vectors.shape[1:]
            ):
                continue
            if bytes_equal(base_vectors, new_vectors):
                exact = i
                break
            rows = base_vectors.shape[0]
            if (
                0 < rows < new_vectors.shape[0]
                and rows > best_rows
                and bytes_equal(base_vectors[:1], new_vectors[:1])
                and bytes_equal(base_vectors[rows - 1 : rows], new_vectors[rows - 1 : rows])
            ):
                best, best_rows = i, rows
        pick = exact if exact is not None else best
        if pick is None:
            continue
        used.add(pick)
        pairing[f"e{j}/vectors"] = f"e{pick}/vectors"
        for name in entry["index"]["__arrays__"]:
            pairing[f"e{j}/index/{name}"] = f"e{pick}/index/{name}"
    return pairing


# --------------------------------------------------------------------- config
def config_to_meta(config: MultiEMConfig) -> dict:
    """JSON tree of a pipeline config (tuples are only in per-field defaults)."""
    return asdict(config)


def config_from_meta(meta: dict, *, source: str = "<memory>") -> MultiEMConfig:
    """Rebuild the pipeline config a snapshot manifest carries.

    Snapshots outlive config fields: a key in :data:`repro.config.RETIRED_KEYS`
    (dropping one never changes what the snapshot computes) is dropped with one
    warning naming it and ``source``; any other key this version does not know
    raises :class:`StoreError` instead of guessing.
    """
    sections = {}
    for name, cls in (
        ("representation", RepresentationConfig),
        ("merging", MergingConfig),
        ("pruning", PruningConfig),
        ("parallel", ParallelConfig),
    ):
        values = dict(meta[name])
        for key in RETIRED_KEYS.get(name, ()):
            if key in values:
                del values[key]
                logger.warning(
                    "snapshot %s: config key %s.%s was retired and is ignored", source, name, key
                )
        unknown = sorted(set(values) - {f.name for f in fields(cls)})
        if unknown:
            raise StoreError(f"snapshot {source}: unknown config key {name}.{unknown[0]}")
        sections[name] = cls(**values)
    config = MultiEMConfig(**sections)
    config.validate()
    return config


# -------------------------------------------------------------------- digests
def arrays_digest(arrays: "Mapping[str, np.ndarray]", *labels: str) -> str:
    """BLAKE2b content digest over named arrays (shape + dtype + raw bytes)."""
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for label in labels:
        digest.update(label.encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def item_table_digest(table: ItemTable) -> str:
    """Content digest of a flat item table (vectors + members + sources)."""
    meta, arrays = item_table_state(table)
    return arrays_digest(arrays, *meta["sources"])


def embedding_store_digest(store: EmbeddingStore) -> str:
    """Content digest of an embedding store (per-source blocks, in order)."""
    meta, arrays = embedding_store_state(store)
    return arrays_digest(arrays, *meta["tables"])
