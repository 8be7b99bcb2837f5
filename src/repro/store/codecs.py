"""State codecs: flat-array core objects ↔ snapshot (meta, arrays) bundles.

Every codec is a pure pair of functions::

    *_state(obj)            -> (meta, {relative_name: ndarray})
    *_from_state(meta, arrays)

where ``meta`` is a JSON-serializable tree and the arrays dict holds raw
numpy buffers. A session stores each bundle under a name prefix, its
array-name list riding in the meta under ``"__arrays__"``
(:func:`repro.store.session.session_state_bundle`; :func:`unpack_arrays`
reads one back).

Restored arrays are adopted **verbatim** (zero-copy when the snapshot is
memory-mapped): a loaded object computes the exact bytes the saved one did.
ANN indexes have no codec: a restored matcher rebuilds the index it needs
from the restored vectors, which gives the same bytes a fresh build would.

The session digests live here too: the store digest is a digest of
per-block digests the store remembers (:func:`embedding_store_digest`), and
a verified load defers each block's check to its first read
(:func:`defer_block_checks`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, fields
from functools import partial
from typing import Callable, Mapping

import numpy as np

from ..config import (
    RETIRED_KEYS,
    MergingConfig,
    MultiEMConfig,
    PruningConfig,
    RepresentationConfig,
)
from ..core.merging import ItemTable
from ..core.representation import EmbeddingStore
from ..exceptions import ConfigurationError, StoreError
from .format import (
    SnapshotChain,
    buffer_key,
    raw_bytes,
    segment_digest,
    string_table_arrays,
    strings_from_arrays,
)

logger = logging.getLogger("repro.store")


# ------------------------------------------------------------------- plumbing
def unpack_arrays(
    arrays: "Mapping[str, np.ndarray]", prefix: str, meta: dict
) -> "dict[str, np.ndarray]":
    """The arrays of one bundle, read out of a flat logical-array mapping by its
    ``__arrays__`` name list (see :func:`repro.store.session.session_state_bundle`)."""
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
    """State bundle of the flat embedding column store (one block per source), blocks unread."""
    blocks = store.stored_blocks()
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
#: The sections a snapshot persists: all but ``parallel``, which moves no output byte.
_CONTENT_SECTIONS = (
    ("representation", RepresentationConfig),
    ("merging", MergingConfig),
    ("pruning", PruningConfig),
)


def config_to_meta(config: MultiEMConfig) -> dict:
    """JSON tree of a pipeline config's content sections."""
    return {name: asdict(getattr(config, name)) for name, _ in _CONTENT_SECTIONS}


def drop_retired(values: dict, section: str, dropped: list, *, what: str = "config key") -> dict:
    """``values`` minus the keys :data:`repro.config.RETIRED_KEYS` lists for ``section``.

    Each dropped key is appended to ``dropped`` as ``"<what> <section>.<key>
    (<what runs in its place>)"``; :func:`warn_retired` then logs them all in
    one warning. This is the one compatibility path for snapshots that outlive
    a config field or a manifest bundle: dropping a retired key never changes
    what the snapshot computes, so a key retired with the one value that
    still loads raises :class:`ConfigurationError` naming any other value.
    """
    values = dict(values)
    for key, reason in RETIRED_KEYS.get(section, {}).items():
        if key in values:
            value = values.pop(key)
            if not isinstance(reason, str):
                reason, kept = reason
                if value != kept:
                    raise ConfigurationError(f"{section}.{key} {value!r} was removed: {reason}")
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
    (:func:`drop_retired`) and appended to ``dropped``, and so is every key
    of the ``parallel`` section older manifests carry, which is not read;
    without a ``dropped`` list to report into, one warning names them all.
    Any other key this version does not know, a missing or malformed content
    section, or a value the config rejects raises :class:`StoreError` naming
    ``source`` and the section instead of guessing.
    """
    report = [] if dropped is None else dropped
    sections = {}
    for name, cls in _CONTENT_SECTIONS:
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
    execution = meta.get("parallel")
    if isinstance(execution, dict):  # written while snapshots persisted every section
        report.extend(
            f"config key parallel.{key} (a loaded matcher runs on ParallelConfig defaults)"
            for key in drop_retired(execution, "parallel", report)
        )
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


#: ``digests["embedding_store_scheme"]`` of the definition below; a record
#: without it was written under :func:`legacy_embedding_store_digest`.
STORE_DIGEST_SCHEME = "blocks"


def store_block_digest(segment: str, block: np.ndarray) -> str:
    """One block's digest: the segment recipe under the block's session segment name."""
    return segment_digest(segment, block.dtype.str, block.shape, block)


def store_block_digests(
    store: EmbeddingStore,
) -> "tuple[dict[str, str], dict[str, tuple[int, Callable[[], str]]]]":
    """``(remembered, tasks)`` keyed by the block's session segment name ``store/block{i}``.

    ``remembered`` holds the digests ``store`` knows, deferred ones included;
    ``tasks`` holds ``(nbytes, compute)`` for every block: ``compute`` runs
    the block's deferred check, or hashes a block with no digest once, and
    returns its digest (also its segment digest); a checked one hashes nothing.
    """
    remembered: dict[str, str] = {}
    tasks: dict[str, tuple[int, Callable[[], str]]] = {}
    for i, (name, block) in enumerate(store.stored_blocks().items()):
        segment = f"store/block{i}"
        digest = store.block_digest(name)
        if digest is not None:
            remembered[segment] = digest

        def compute(name=name, segment=segment) -> str:
            block = store.checked_block(name)
            known = store.block_digest(name)
            return known or store.remember_block_digest(name, store_block_digest(segment, block))

        tasks[segment] = (int(block.nbytes), compute)
    return remembered, tasks


def defer_block_checks(store: EmbeddingStore, chain: SnapshotChain) -> None:
    """Hand ``store`` each block that is a ``chain`` file's own ``store/block{i}``
    segment unread, with the digest that file records for it: the block is hashed
    the first time its bytes are read, and a mismatch raises :class:`StoreError`
    naming the block and the file. Any other block is left to be hashed now."""
    blocks = list(store.stored_blocks().items())
    for snapshot, path in zip(chain.snapshots, chain.paths):
        for i, (name, block) in enumerate(blocks):
            segment = f"store/block{i}"
            digest = snapshot.entry(segment).get("digest") if segment in snapshot else None
            if digest and buffer_key(snapshot.array(segment)) == buffer_key(block):
                check = partial(_check_block, segment, block, digest, path)
                store.defer_block_check(name, digest, check)


def _check_block(segment: str, block: np.ndarray, digest: str, path: str) -> None:
    derived = store_block_digest(segment, block)
    if derived != digest:
        raise StoreError(
            f"snapshot {path}: store block {segment!r} does not match its segment "
            f"digest (recorded {digest}, derived {derived}): corrupted file"
        )


def embedding_store_digest(store: EmbeddingStore) -> str:
    """Content digest of an embedding store: a digest of its per-block digests.

    BLAKE2b over the table names in registration order (one JSON list), then
    each block's :func:`store_block_digest` (name, dtype, shape, raw bytes),
    so it holds for any block dtype. A registered block is read-only, so each
    is hashed once per process; blocks not yet remembered are hashed inline
    (a deferred digest folds unread).
    """
    import hashlib

    remembered, tasks = store_block_digests(store)
    for segment, (_, compute) in tasks.items():
        if segment not in remembered:
            compute()
    names = list(store.stored_blocks())
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(names).encode())
    for name in names:
        digest.update(store.block_digest(name).encode())
    return digest.hexdigest()


def legacy_embedding_store_digest(store: EmbeddingStore) -> str:
    """Read path of manifests without ``embedding_store_scheme``: one stream over all blocks."""
    meta, arrays = embedding_store_state(store)
    return arrays_digest(arrays, *meta["tables"])
