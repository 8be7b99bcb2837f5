"""Zero-copy persistence: snapshots, delta chains, load-and-serve.

Everything the pipeline fits lives in flat numpy arrays (PR 2-4); this
package makes those arrays *move* without serialization:

* :mod:`repro.store.format` — the snapshot container: one file holding a
  magic + version header, 64-byte-aligned raw array segments, and a
  trailing JSON manifest. ``Snapshot.open(path,
  mmap=True)`` returns arrays that are read-only views over the mapped file
  — zero copies; ``mmap=False`` materializes independent copies. The header
  carries a single integer format version (currently 2); readers accept
  exactly ``SUPPORTED_VERSIONS``, additive manifest keys don't bump it (see
  the module docstring for the full policy and version history).
* :mod:`repro.store.codecs` — ``(meta, arrays)`` state bundles for the
  flat-array core types: :class:`~repro.core.merging.ItemTable`,
  :class:`~repro.core.representation.EmbeddingStore`, fitted encoders, and
  the pipeline config. Restores adopt the stored bytes verbatim, so save →
  load → continue stays byte-identical. ANN indexes are not persisted: a
  restored matcher builds the index it needs, with the same bytes.
* :mod:`repro.store.delta` — the delta ops themselves (``ref`` / ``alias``
  / row-``patch`` / ``full``), bundle-level diff/replay, and chain folding.
* :mod:`repro.store.session` — :func:`save_session` /
  :class:`MatchSession`: snapshot a fitted
  :class:`~repro.core.incremental.IncrementalMultiEM` once, then serve
  ``match_new_table`` and nearest-tuple ``query_many`` calls from a cold process
  without refitting anything; content digests recorded at save time are
  verified on load.

Delta chains (rolling ingest)
-----------------------------

A fitted matcher's first ``save`` writes a self-contained **base**; after
further ``add_table`` calls, ``save`` emits an **append-only delta** next to
it (:func:`save_session_delta`) holding only the changed bytes — unchanged
arrays become zero-byte refs onto the parent and the integrated vector
plane row-patches.
Each delta's manifest links its parent by basename plus payload digest, so
:class:`SnapshotChain` can resolve and verify a whole ancestry;
``load_matcher`` / :meth:`MatchSession.load` accept any chain tip and
reconstruct a state byte-identical to a single full snapshot.
:func:`compact_session` collapses a chain back into one base file
(byte-identical to a direct full save).

Durability (crash safety, fsck, GC)
-----------------------------------

Every file save commits atomically — temp file + fsync + ``os.replace`` +
directory fsync — so a crash leaves either the old state or the new one,
never a torn file (partials are swept on the next open). Mutating
operations serialize on a per-directory writer lock
(:mod:`repro.store.lock`, fail-fast with stale takeover).
:mod:`repro.store.fsck` verifies whole store directories (per-segment
digests, payload digests, chain links), quarantines unrecoverable damage,
rolls a damaged tip back to its deepest intact ancestor (opt-in), and
garbage-collects chain files superseded by a verified compaction
(``compact_session(retire=True)`` writes the authorizing marker). The
fault-injection switchboard behind the crash-matrix tests lives in
:mod:`repro.faults`.

CLI: ``python -m repro.cli snapshot save|load|append|compact|inspect|fsck|gc``
and ``serve-match`` exercise the same paths end to end.
"""

from .format import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    DeltaWriter,
    Snapshot,
    SnapshotChain,
    SnapshotWriter,
)
from .fsck import (
    FsckReport,
    GcReport,
    deepest_intact,
    fsck_store,
    gc_store,
    sweep_partials,
)
from .lock import StoreLock
from .session import (
    MatchSession,
    compact_session,
    load_matcher,
    save_session,
    save_session_delta,
)

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "DeltaWriter",
    "Snapshot",
    "SnapshotChain",
    "SnapshotWriter",
    "FsckReport",
    "GcReport",
    "deepest_intact",
    "fsck_store",
    "gc_store",
    "sweep_partials",
    "StoreLock",
    "MatchSession",
    "compact_session",
    "load_matcher",
    "save_session",
    "save_session_delta",
]
