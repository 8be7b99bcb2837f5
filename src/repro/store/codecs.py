"""State codecs: flat-array core objects ↔ snapshot (meta, arrays) bundles.

Every codec is a pure pair of functions::

    *_state(obj)            -> (meta, {relative_name: ndarray})
    *_from_state(meta, arrays)

where ``meta`` is a JSON-serializable tree and the arrays dict holds raw
numpy buffers. :func:`pack` / :func:`unpack` shuttle a bundle into / out of a
:class:`~repro.store.format.SnapshotWriter` / ``Snapshot`` under a name
prefix (the array-name list rides in the meta under ``"__arrays__"``).

Restored arrays are adopted **verbatim** (zero-copy when the snapshot is
memory-mapped): a loaded object computes the exact bytes the saved one did.
ANN indexes have no codec: a restored matcher rebuilds the index it needs
from the restored vectors, which gives the same bytes a fresh build would.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, fields
from typing import Mapping

import numpy as np

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
from ..exceptions import ConfigurationError, StoreError
from .format import (
    Snapshot,
    SnapshotWriter,
    raw_bytes,
    string_table_arrays,
    strings_from_arrays,
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


# --------------------------------------------------------------------- config
def config_to_meta(config: MultiEMConfig) -> dict:
    """JSON tree of a pipeline config (tuples are only in per-field defaults)."""
    return asdict(config)


def drop_retired(values: dict, section: str, dropped: list, *, what: str = "config key") -> dict:
    """``values`` minus the keys :data:`repro.config.RETIRED_KEYS` lists for ``section``.

    Each dropped key is appended to ``dropped`` as ``"<what> <section>.<key>
    (<what runs in its place>)"``; :func:`warn_retired` then logs them all in
    one warning. This is the one compatibility path for snapshots that outlive
    a config field or a manifest bundle: dropping a retired key never changes
    what the snapshot computes.
    """
    values = dict(values)
    for key, reason in RETIRED_KEYS.get(section, {}).items():
        if key in values:
            del values[key]
            dropped.append(f"{what} {section}.{key} ({reason})")
    return values


def warn_retired(dropped: list, source: str) -> None:
    """One warning naming every retired name :func:`drop_retired` dropped from ``source``."""
    if dropped:
        logger.warning("snapshot %s: ignored retired %s", source, "; ".join(dropped))


def config_from_meta(
    meta: dict, *, source: str = "<memory>", dropped: list | None = None
) -> MultiEMConfig:
    """Rebuild the pipeline config a snapshot manifest carries.

    Snapshots outlive config fields: retired keys are dropped
    (:func:`drop_retired`) and appended to ``dropped``; without a ``dropped``
    list to report into, one warning names them all. Any other key this
    version does not know, a missing or malformed section, or a value the
    config rejects raises :class:`StoreError` naming ``source`` and the
    section instead of guessing.
    """
    report = [] if dropped is None else dropped
    sections = {}
    for name, cls in (
        ("representation", RepresentationConfig),
        ("merging", MergingConfig),
        ("pruning", PruningConfig),
        ("parallel", ParallelConfig),
    ):
        try:
            values = drop_retired(meta[name], name, report)
            unknown = sorted(set(values) - {f.name for f in fields(cls)})
            if unknown:
                raise StoreError(f"snapshot {source}: unknown config key {name}.{unknown[0]}")
            sections[name] = cls(**values)
            sections[name].validate()
        except KeyError as exc:
            raise StoreError(f"snapshot {source}: config section {name} is missing") from exc
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise StoreError(f"snapshot {source}: invalid config section {name}: {exc}") from exc
    if dropped is None:
        warn_retired(report, source)
    return MultiEMConfig(**sections)


# -------------------------------------------------------------------- digests
def arrays_digest(arrays: "Mapping[str, np.ndarray]", *labels: str) -> str:
    """BLAKE2b content digest over named arrays (shape + dtype + raw bytes).

    The bytes are hashed in place (:func:`~repro.store.format.raw_bytes`), so
    a digest costs no copy of the arrays and releases the GIL while it reads.
    """
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for label in labels:
        digest.update(label.encode())
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(raw_bytes(array))
    return digest.hexdigest()


def item_table_digest(table: ItemTable) -> str:
    """Content digest of a flat item table (vectors + members + sources)."""
    meta, arrays = item_table_state(table)
    return arrays_digest(arrays, *meta["sources"])


def embedding_store_digest(store: EmbeddingStore) -> str:
    """Content digest of an embedding store (per-source blocks, in order)."""
    meta, arrays = embedding_store_state(store)
    return arrays_digest(arrays, *meta["tables"])
