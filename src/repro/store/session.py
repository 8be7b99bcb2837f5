"""Load-and-serve matching: snapshot a fitted pipeline, restore, keep matching.

:func:`save_session` writes what a restored
:class:`~repro.core.incremental.IncrementalMultiEM` computes with — pipeline
config, the fitted encoder (its IDF vocabulary), the integrated
:class:`~repro.core.merging.ItemTable`, the
:class:`~repro.core.representation.EmbeddingStore` — into one snapshot file.
ANN indexes are not persisted: a restored matcher builds the index it needs.
:class:`MatchSession` (or :func:`load_matcher`) restores a snapshot without
re-running any pipeline stage: with ``mmap=True`` every vector plane is a
zero-copy view over the mapped file, so a cold process starts answering
``matcher.add_table`` / ``query_many`` calls in the time it takes to parse
the manifest.

Files written while the index cache was persisted carry a ``cache`` bundle,
and files of a sharded fit a ``shard`` bundle; either is dropped on load with
one warning (:data:`repro.config.RETIRED_KEYS`, section ``"session"``), and
its segments stay covered by the payload digest and ``fsck``.

Restores are exact: the snapshot records content digests of the integrated
table and the embedding store at save time, ``load`` verifies them
(``verify=False`` to skip), and a restored matcher's ``add_table`` produces
byte-for-byte the tuples the in-memory matcher would have — pinned by
``tests/store/test_session.py``. The store and payload digests fold the
per-block and per-segment digests, so a save hashes each byte once, and a
verified load reads only what the session uses: every segment but the store
blocks is checked at load, each block the first time the store hands out its
bytes, so a query-only session reads none. A record without its
``payload_scheme`` / ``embedding_store_scheme`` marker is verified eagerly
under the old definitions, and a missing record or unknown marker is a
:class:`~repro.exceptions.StoreError`.

Sessions also persist **incrementally**: after a full save (or load), the
matcher remembers its on-disk base, and :func:`save_session_delta` writes
only what changed since — a chain segment next to the base (see
:mod:`repro.store.format` for the chain layout and :mod:`repro.store.delta`
for the diff ops). ``load_matcher`` / :meth:`MatchSession.load` accept a
chain tip transparently: the chain is resolved, link digests verified, and
the reconstructed state is byte-identical to a single full snapshot of the
same matcher — which :func:`compact_session` can then write out, collapsing
any chain back into one self-contained base file.
"""

from __future__ import annotations

import logging
import math
import os

import numpy as np

from ..core.incremental import IncrementalMultiEM
from ..core.merging import plan_merge_index
from ..exceptions import DataError, StoreError
from . import codecs
from .delta import diff_bundle, resolve_chain_arrays
from .format import PAYLOAD_SCHEME, DeltaWriter, SnapshotChain, SnapshotWriter, payload_scheme
from .fsck import (
    SESSION_TYPE,
    check_snapshot_file,
    deepest_intact,
    sweep_partials,
    write_retirement_marker,
)
from .lock import StoreLock

logger = logging.getLogger("repro.store")


def _store_dir(path) -> str:
    return os.path.dirname(os.path.abspath(os.fspath(path))) or "."


def session_state_bundle(state) -> "tuple[dict, dict[str, np.ndarray]]":
    """Flatten a matcher's ``snapshot_state`` into ``(bundle_metas, arrays)``.

    ``arrays`` is the ordered flat logical-array mapping every save path
    (full, delta, compacted) works over — ``table/…``, ``store/…`` and
    ``encoder/…`` — and ``bundle_metas`` holds the bundle meta trees, each
    carrying its ``__arrays__`` name list.
    """
    parts = [
        ("table", "table/", codecs.item_table_state(state["table"])),
        ("store", "store/", codecs.embedding_store_state(state["store"])),
        ("encoder", "encoder/", codecs.encoder_state(state["encoder"])),
    ]
    metas: dict = {}
    arrays: dict = {}
    for key, prefix, (meta, bundle) in parts:
        meta = dict(meta)
        meta["__arrays__"] = list(bundle)
        metas[key] = meta
        for name, array in bundle.items():
            arrays[prefix + name] = array
    return metas, arrays


def _session_meta(state, metas: dict, digests: dict) -> dict:
    # Key order is part of the byte-pinned manifest; do not reorder.
    return {
        "type": SESSION_TYPE,
        "config": codecs.config_to_meta(state["config"]),
        "attributes": list(state["attributes"]),
        "schema": list(state["schema"]),
        "known_sources": list(state["known_sources"]),
        "digests": digests,
        "table": metas["table"],
        "store": metas["store"],
        "encoder": metas["encoder"],
    }


def _save_digests(matcher: IncrementalMultiEM, state, metas: dict, arrays: dict, writer) -> dict:
    """Every digest a save records, as one flat fan-out on the matcher's pool.

    The item-table digest, each per-segment digest and each embedding-store
    block the file writes or the store has no digest for are independent
    BLAKE2b streams over buffers nothing mutates, and hashlib releases the
    GIL while it reads them in place, so they run as one ``executor.map``
    from the calling thread, largest first (inline, in the same order, when
    the executor is serial: the digests are the same either way). A block's
    digest is its ``store/block{i}`` segment digest, so a segment holding a
    block is hashed once for both, and a block an earlier save or a verified
    load hashed is not hashed again; a written block a load deferred is
    checked instead, and an unread one the file refs is not read at all. So
    a delta save hashes the new block, the item table and its own segments,
    each byte once. The store digest then folds the block digests, and the
    payload digest the manifest, on the calling thread; the segment digests
    and the session meta go to ``writer``, which writes what was digested.
    This may start the matcher's lazy pool; it runs before the file is
    opened, so a failing task leaves nothing on disk. Returns the manifest's
    digest record.
    """
    remembered, blocks = codecs.store_block_digests(state["store"])
    segments = writer.segment_digest_tasks()
    pending = {name: task for name, task in segments.items() if name not in remembered}
    pending.update((n, t) for n, t in blocks.items() if n in segments or n not in remembered)
    table_bytes = sum(a.nbytes for name, a in arrays.items() if name.startswith("table/"))
    tasks = [("item_table", table_bytes, lambda: codecs.item_table_digest(state["table"]))]
    tasks += [(("segment", name), nbytes, task) for name, (nbytes, task) in pending.items()]
    tasks.sort(key=lambda task: -task[1])
    keys = [key for key, _, _ in tasks]
    results = dict(zip(keys, matcher._executor.map(lambda task: task[2](), tasks)))
    writer.set_segment_digests(
        {name: results.get(("segment", name)) or remembered[name] for name in segments}
    )
    digests = {
        "item_table": results["item_table"],
        "embedding_store": codecs.embedding_store_digest(state["store"]),
        "embedding_store_scheme": codecs.STORE_DIGEST_SCHEME,
        "payload": None,  # the payload digest leaves out its own value
        "payload_scheme": PAYLOAD_SCHEME,
    }
    writer.set_meta(_session_meta(state, metas, digests))
    digests["payload"] = writer.payload_digest()
    return digests


def _record_base(matcher: IncrementalMultiEM, path, digests, arrays: dict, depth: int) -> None:
    """Remember the matcher's on-disk base so the next save can emit a delta.

    Captured by reference, not by re-reading the file: the pipeline never
    mutates published arrays (stores append blocks, merges build fresh
    arrays), so the captured objects stay the exact bytes the snapshot holds.
    The next delta save relies on that twice: an array that is still the
    base's own buffer is a ``ref`` without a byte compare
    (:func:`repro.store.delta.diff_array`), and only what changed is
    written. It runs after the file is published, so a save that fails
    leaves the previous base in place. Snapshots without a recorded payload
    digest (pre-chain files) cannot anchor a chain, so no base is recorded.
    """
    payload = digests.get("payload") if isinstance(digests, dict) else None
    matcher._base = (
        None
        if payload is None
        else {
            "path": os.path.abspath(os.fspath(path)),
            "payload": payload,
            "depth": int(depth),
            "arrays": dict(arrays),
        }
    )


def save_session(matcher: IncrementalMultiEM, path) -> dict:
    """Write a fitted matcher's full state to ``path``; returns the digest record."""
    state = matcher.snapshot_state()
    metas, arrays = session_state_bundle(state)
    writer = SnapshotWriter()
    for name, array in arrays.items():
        writer.add_array(name, array)
    # The payload digest covers the manifest, so every segment digest of every
    # bundle (the encoder included), not just the two core structures.
    digests = _save_digests(matcher, state, metas, arrays, writer)
    with StoreLock(_store_dir(path)):
        writer.save(path)
    _record_base(matcher, path, digests, arrays, depth=0)
    return digests


def save_session_delta(matcher: IncrementalMultiEM, path) -> dict:
    """Write only what changed since the matcher's recorded base snapshot.

    Produces a chain segment next to the base (parents resolve by basename):
    unchanged arrays become zero-byte refs and the integrated table's vector
    plane row-patches. An array that is still the base's own buffer (every
    embedding block a previous save published) is a ``ref`` without a byte
    compare. The manifest still carries the *complete* session meta plus the
    reconstructed-state digests, so a chain tip describes the whole logical
    state; those digests and the per-segment digests are computed in one
    fan-out on the matcher's pool before the file is opened, and the payload
    digest over this file's manifest then (:func:`_save_digests`). Returns
    the digest record.
    """
    base = getattr(matcher, "_base", None)
    if base is None:
        raise StoreError("matcher has no base snapshot; save a full session first")
    path_abs = os.path.abspath(os.fspath(path))
    if path_abs == base["path"]:
        raise StoreError("a delta cannot overwrite its own base; use a sibling path")
    if os.path.dirname(path_abs) != os.path.dirname(base["path"]):
        raise StoreError(
            "a delta must be written next to its base "
            f"(base lives at {base['path']!r}); parents resolve by basename"
        )
    state = matcher.snapshot_state()
    metas, arrays = session_state_bundle(state)
    spec, segments = diff_bundle(arrays, base["arrays"])
    writer = DeltaWriter(base["path"], base["payload"], base["depth"] + 1)
    for name, segment in segments.items():
        writer.add_array(name, segment)
    writer.set_delta(spec)
    # The payload digest covers this file only; parents are covered by the
    # chain links (SnapshotChain.verify_links).
    digests = _save_digests(matcher, state, metas, arrays, writer)
    with StoreLock(_store_dir(path)):
        writer.save(path)
    _record_base(matcher, path, digests, arrays, depth=base["depth"] + 1)
    return digests


def _restore_state(chain: SnapshotChain, *, verify: bool):
    """Rehydrate a matcher from an open chain; returns ``(matcher, logical arrays)``.

    A verified restore checks the chain links, every chain file
    (:func:`~repro.store.fsck.check_snapshot_file`, store blocks deferred)
    and the digest record. Under the ``payload_scheme`` marker it reads only
    what it uses: the payload digests prove the manifests, every segment but
    the store blocks is checked before the arrays are folded, and each block
    goes to the store unread, checked when first read
    (:func:`codecs.defer_block_checks`). A legacy record keeps the eager
    path: every byte is hashed at load. Retired bundles (an old file's
    ``cache`` or ``shard``) and retired config keys are dropped with one
    warning that names them all.
    """
    meta, source = chain.meta, chain.paths[-1]
    if not isinstance(meta, dict) or meta.get("type") != SESSION_TYPE:
        raise StoreError("snapshot does not hold a MultiEM session")
    recorded, derived = meta.get("digests"), {}
    if verify:
        if not isinstance(recorded, dict):
            raise StoreError(f"snapshot {source}: its digest record is missing or not an object")
        chain.verify_links()
        for snapshot, path in zip(chain.snapshots, chain.paths):
            status = check_snapshot_file(snapshot, defer_blocks=True)
            if not status.ok:
                raise StoreError(f"snapshot {path}: {status.detail}")
        if "payload" in recorded:
            derived["payload"] = status.payload  # the tip's: the loop checks it last
        if payload_scheme(meta) is not None:
            derived["payload_scheme"] = PAYLOAD_SCHEME
    arrays = resolve_chain_arrays(chain)
    dropped: list[str] = []
    meta = codecs.drop_retired(meta, "session", dropped, what="manifest bundle")
    table = codecs.item_table_from_state(
        meta["table"], codecs.unpack_arrays(arrays, "table/", meta["table"])
    )
    store = codecs.embedding_store_from_state(
        meta["store"], codecs.unpack_arrays(arrays, "store/", meta["store"])
    )
    if verify:
        derived["item_table"] = codecs.item_table_digest(table)
        scheme = recorded.get("embedding_store_scheme")
        if scheme is None:  # written before per-block store digests
            derived["embedding_store"] = codecs.legacy_embedding_store_digest(store)
        elif scheme == codecs.STORE_DIGEST_SCHEME:
            if "payload_scheme" in derived:  # the manifests are proved: check blocks at first read
                codecs.defer_block_checks(store, chain)
            derived["embedding_store"] = codecs.embedding_store_digest(store)
            derived["embedding_store_scheme"] = scheme
        else:
            raise StoreError(
                f"snapshot {source}: unknown embedding-store digest scheme {scheme!r}"
            )
        if derived != recorded:
            raise StoreError(
                f"snapshot digests do not match its contents: recorded {recorded}, "
                f"derived {derived} (corrupted or truncated file)"
            )
    encoder = codecs.encoder_from_state(
        meta["encoder"], codecs.unpack_arrays(arrays, "encoder/", meta["encoder"])
    )
    config = codecs.config_from_meta(meta["config"], source=str(source), dropped=dropped)
    codecs.warn_retired(dropped, str(source))
    return IncrementalMultiEM.from_snapshot_state(
        config=config,
        encoder=encoder,
        attributes=tuple(meta["attributes"]),
        schema=tuple(meta["schema"]),
        table=table,
        store=store,
        known_sources=meta["known_sources"],
    ), arrays


def _open_chain_once(path, *, mmap: bool, verify: bool):
    chain = SnapshotChain.open(path, mmap=mmap)
    try:
        matcher, arrays = _restore_state(chain, verify=verify)
        _record_base(matcher, chain.paths[-1], chain.meta.get("digests"), arrays, chain.depth)
        return matcher, chain.meta
    finally:
        if not mmap:
            chain.close()


def _open_chain_session(path, *, mmap: bool, verify: bool, allow_rollback: bool = False):
    """Open a snapshot (or chain tip), restore the matcher; ``(matcher, meta)``.

    Opening first sweeps partial files left by provably-dead writers (a live
    writer's in-flight temp is never touched). With ``allow_rollback=True``,
    a tip that fails to open or verify, its store blocks checked at once,
    falls back to its deepest intact ancestor (:func:`repro.store.fsck.deepest_intact`)
    — an explicit opt-in, because it silently serves older state.
    """
    sweep_partials(_store_dir(path))
    try:
        matcher, meta = _open_chain_once(path, mmap=mmap, verify=verify)
        if allow_rollback:  # a damaged block must roll back now, not raise at first read
            matcher._store.blocks()
        return matcher, meta
    except StoreError:
        if not allow_rollback:
            raise
        fallback = deepest_intact(path)
        if fallback is None or os.path.abspath(fallback) == os.path.abspath(
            os.fspath(path)
        ):
            raise
        logger.warning(
            "snapshot %s failed to load; rolling back to deepest intact ancestor %s",
            os.fspath(path),
            fallback,
        )
        return _open_chain_once(fallback, mmap=mmap, verify=verify)


def load_matcher(
    path, *, mmap: bool = True, verify: bool = True, allow_rollback: bool = False
) -> IncrementalMultiEM:
    """Restore a fitted :class:`IncrementalMultiEM` from a session snapshot.

    ``path`` may be a base snapshot or any chain delta: the whole ancestry
    is resolved and folded, and the restored state is byte-identical to a
    single full snapshot of the same matcher. With ``mmap=True`` the
    matcher's arrays stay backed by the mapped file(s) (zero copies,
    read-only); the mappings live as long as the arrays do. ``verify=True``
    re-derives and checks the recorded content digests — chain link digests
    included. ``allow_rollback=True`` falls back to the deepest intact
    ancestor when the tip is damaged (explicit opt-in: it serves older
    state).
    """
    matcher, _ = _open_chain_session(
        path, mmap=mmap, verify=verify, allow_rollback=allow_rollback
    )
    return matcher


def compact_session(
    path, out_path, *, mmap: bool = True, verify: bool = True, retire: bool = False
) -> dict:
    """Collapse the chain ending at ``path`` into one base file at ``out_path``.

    The output is a self-contained session snapshot, byte-identical to the
    full snapshot the tip matcher would have saved directly (an old chain
    compacts without its retired ``cache`` or ``shard`` bundle). The source
    chain is left untouched; with ``retire=True`` (chain and output in the
    same directory) a retirement marker is written next to the output naming
    the superseded chain files, which authorizes a later ``gc_store`` pass to
    delete them once the compacted file re-verifies. Returns the digest record of the compacted
    snapshot.
    """
    out_abs = os.path.abspath(os.fspath(out_path))
    with StoreLock(_store_dir(out_path)):
        chain = SnapshotChain.open(path, mmap=mmap)
        try:
            if any(os.path.abspath(p) == out_abs for p in chain.paths):
                raise StoreError(
                    "refusing to compact onto a live chain member; write to a fresh "
                    "path, then retire the old chain"
                )
            superseded: dict[str, str] = {}
            if retire:
                chain_dir = os.path.dirname(os.path.abspath(chain.paths[0])) or "."
                if chain_dir != _store_dir(out_path):
                    raise StoreError(
                        "retire=True requires the compacted output to live in the "
                        f"chain's own directory ({chain_dir!r}); markers and gc are "
                        "per-directory"
                    )
                superseded = {
                    os.path.basename(p): snapshot.payload_digest()
                    for p, snapshot in zip(chain.paths, chain.snapshots)
                }
            matcher, _ = _restore_state(chain, verify=verify)
        finally:
            if not mmap:
                chain.close()
        try:
            digests = save_session(matcher, out_path)
        finally:
            matcher.close()
        if retire:
            write_retirement_marker(out_abs, digests["payload"], superseded)
        return digests


class _QueryContext:
    """Per-session query plumbing, resolved once instead of per request.

    Hoists everything a lookup needs that does not depend on the texts: the
    encoder handle, the merging config, the default distance cutoff, and the
    query index itself. The index is held against the identity of the
    integrated :class:`~repro.core.merging.ItemTable` it was built for —
    ``add_table`` and reload publish a new table object, and a published
    table is never mutated — so it is built once per table, not once per
    call.
    """

    __slots__ = (
        "representer",
        "merging",
        "default_max_distance",
        "_table",
        "_index",
    )

    def __init__(self, matcher: IncrementalMultiEM) -> None:
        assert matcher._representer is not None
        self.representer = matcher._representer
        merging = matcher.config.merging
        self.merging = merging
        self.default_max_distance = merging.m
        self._table = None
        self._index = None

    def index_for(self, table):
        """The query index over ``table.vectors``, built once per table object.

        Planned exactly as a merge plans its index, so it is the index a merge
        over the same vectors builds.
        """
        if table is not self._table:
            self._index = plan_merge_index(table.vectors, self.merging)[1]()
            self._table = table
        return self._index


class MatchSession:
    """A restored pipeline serving match and nearest-tuple queries.

    Wraps the rehydrated :class:`IncrementalMultiEM` as :attr:`matcher`:
    ``matcher.add_table`` folds a new source table in (no refit, byte-for-byte
    what the never-snapshotted matcher returns), and :meth:`query_many`
    answers nearest-tuple queries.
    """

    def __init__(self, matcher: IncrementalMultiEM, digests: dict | None = None) -> None:
        self.matcher = matcher
        self.digests = dict(digests or {})
        self._query_context: _QueryContext | None = None

    @classmethod
    def load(
        cls,
        path,
        *,
        mmap: bool = True,
        verify: bool = True,
        allow_rollback: bool = False,
    ) -> "MatchSession":
        """Open a session snapshot or chain tip (see :func:`load_matcher`)."""
        matcher, meta = _open_chain_session(
            path, mmap=mmap, verify=verify, allow_rollback=allow_rollback
        )
        return cls(matcher, meta.get("digests") if isinstance(meta, dict) else None)

    # ------------------------------------------------------------- serving
    def query_many(self, texts, k: int = 1, max_distance: float | None = None):
        """Nearest integrated tuples for raw serialized texts, batched.

        Encodes ``texts`` with the restored encoder and searches the
        integrated table with the configured ANN backend (the index is built
        once per integrated table and held until ``add_table`` publishes a
        new table). Returns one list per text of ``(members, distance)``
        pairs, nearest first; pairs beyond ``max_distance`` (default: the
        merging threshold ``m``) are dropped. ``k`` beyond the table's size
        answers as ``k = len(table)`` would. A NaN ``max_distance`` raises
        :class:`~repro.exceptions.DataError`: no distance compares greater
        than NaN, so it would drop nothing.

        The serving plane's hot path: all per-session config plumbing lives
        in a prepared :class:`_QueryContext` built on first use, and the
        index query goes through :func:`repro.ann.engine.query_rows`, whose
        contract is that each text's answer is bit-identical however the
        batch is composed. That is what lets the request coalescer fold
        concurrent requests into one ``encode_texts`` + one index query and
        slice per-request results back out byte-identically (pinned by
        ``tests/serve/test_coalescer.py``).
        """
        if max_distance is not None and math.isnan(max_distance):
            raise DataError("max_distance must be a number, not NaN")
        table = self.matcher.integrated_table
        if len(table) == 0:
            return [[] for _ in texts]
        context = self._query_context
        if context is None:
            context = self._query_context = _QueryContext(self.matcher)
        if max_distance is None:
            max_distance = context.default_max_distance
        vectors = context.representer.encode_texts(list(texts))
        index = context.index_for(table)
        from ..ann.engine import query_rows

        # No text has more than len(table) neighbours; a larger k only
        # sizes the answer arrays (k = 10**12 would not fit in memory).
        indices, distances = query_rows(index, vectors, min(k, len(table)))
        from ..data.entity import EntityRef

        def members_of(item: int) -> tuple:
            start, stop = int(table.member_offsets[item]), int(table.member_offsets[item + 1])
            return tuple(
                EntityRef(table.sources[int(sid)], int(idx))
                for sid, idx in zip(
                    table.member_sources[start:stop], table.member_indices[start:stop]
                )
            )

        results = []
        for row in range(indices.shape[0]):
            hits = []
            for slot in range(indices.shape[1]):
                item = int(indices[row, slot])
                dist = float(distances[row, slot])
                if item < 0 or not np.isfinite(dist) or dist > max_distance:
                    continue
                hits.append((members_of(item), dist))
            results.append(hits)
        return results

    # ------------------------------------------------------------ plumbing
    @property
    def known_sources(self) -> tuple[str, ...]:
        return self.matcher.known_sources

    def close(self) -> None:
        """Release the matcher's worker pools (the mapping follows its arrays)."""
        self.matcher.close()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
