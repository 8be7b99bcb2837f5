"""Versioned, memory-mappable snapshot container (header + aligned segments + JSON manifest).

One snapshot is a single file laid out arrow-style::

    offset 0   magic  b"REPROSNP"
    offset 8   uint64 format version (little-endian)
    offset 16  uint64 manifest offset
    offset 24  uint64 manifest length
    offset 64  raw array segments, each aligned to a 64-byte boundary
    ...
    manifest   UTF-8 JSON: {"arrays": {name: {dtype, shape, offset, nbytes}},
                            "meta": <caller-supplied JSON tree>,
                            "chain": <optional parent link, delta files only>,
                            "delta": <optional delta spec, delta files only>}

Arrays are stored as raw C-contiguous bytes, so a reader can hand back numpy
views *directly over the mapped buffer* — ``Snapshot.open(path, mmap=True)``
performs zero copies; the returned arrays are read-only because they alias
storage another process (or a later writer) may own. ``mmap=False``
materializes independent writable arrays instead.

Delta chains
------------

A snapshot may be the **base** of an append-only chain: a
:class:`DeltaWriter` produces a sibling file whose manifest carries a
``chain`` link — ``{"parent": <basename>, "parent_payload": <digest>,
"depth": k}`` — plus a ``delta`` spec describing how each logical array of
the new state derives from the parent's (``ref`` / ``alias`` / row-``patch``
/ ``full``; see :mod:`repro.store.delta`). Parents are resolved by basename
next to the child, so a chain directory can be relocated as a unit.
:meth:`SnapshotChain.open` walks the links tip → base (each file written
atomically, per-segment aligned exactly like a base snapshot), and
:meth:`SnapshotChain.verify_links` proves every parent's payload is bit for
bit the one its child was diffed against. Folding a chain back into one
logical state — and compacting it into a fresh base — lives in
:mod:`repro.store.delta` and :mod:`repro.store.session`.

Format version policy
---------------------

The header carries a single integer **format version** (currently
``FORMAT_VERSION = 2``). Readers accept only the versions they understand
(``SUPPORTED_VERSIONS``) — raw buffer layouts cannot be sniffed safely.
Additive changes (new manifest meta keys, new array names) do **not** bump
the version; any change to the header, alignment, segment encoding, or the
meaning of existing manifest fields must. Version history:

* **1** — header + aligned segments + ``{"arrays", "meta"}`` manifest.
* **2** — manifest may carry ``chain`` / ``delta`` trees: a file can be an
  append-only delta over a parent snapshot instead of a self-contained
  state. Version-1 files remain readable (they are exactly the chain-free
  subset); version-1 readers must not see chain files, hence the bump.
"""

from __future__ import annotations

import contextlib
import json
import mmap as mmap_module
import os
import struct
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .. import faults as _faults
from ..exceptions import StoreError


@contextlib.contextmanager
def atomic_output(path: str | os.PathLike, mode: str = "wb"):
    """Open a sibling temp file; publish it over ``path`` only on success.

    The commit protocol shared by snapshot saves and retirement markers:
    write ``<path>.tmp.<pid>``, fsync it, publish with one atomic
    ``os.replace``, then fsync the directory so the rename itself is durable. An interrupted writer can never leave a truncated file
    behind — the previous contents survive untouched and the temp file is
    removed on ordinary failure. A *crash* (a killed process — simulated by
    :class:`repro.faults.InjectedCrash`) leaves the partial temp file on
    disk exactly as a real crash would; stale partials are identified by
    their embedded pid and swept by :func:`repro.store.fsck.sweep_partials`
    (which every writer-lock acquisition and fsck run performs).

    Every durable file operation routes through :mod:`repro.faults`, so
    tests can tear the k-th write, drop the fsync, or fail the replace at
    will; with no fault plan active the hooks are plain passthroughs.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        handle = _faults.open_for_write(tmp_path, mode)
        try:
            yield handle
            _faults.fsync_handle(handle)
        finally:
            handle.close()
        _faults.replace(tmp_path, path)
        _faults.fsync_dir(os.path.dirname(path) or ".")
    except BaseException as exc:
        # A simulated crash means the machine died mid-write: leave the
        # partial exactly as a real crash would, for recovery to deal with.
        if not isinstance(exc, _faults.InjectedCrash):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise

MAGIC = b"REPROSNP"
FORMAT_VERSION = 2
#: Versions this reader understands (see the module docstring's history).
SUPPORTED_VERSIONS = (1, 2)
_ALIGNMENT = 64
_HEADER = struct.Struct("<8sQQQ")  # magic, version, manifest offset, manifest length


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class SnapshotWriter:
    """Collects named arrays plus a JSON meta tree, then writes one snapshot.

    Arrays are canonicalized to C-contiguous on :meth:`add_array` (a copy only
    when the input was non-contiguous); the writer holds references until the
    snapshot is written (:meth:`save`), so add-then-mutate is not supported.

    ``segment_digests=True`` records a per-segment content digest in every
    canonical manifest entry (an additive manifest key — no format-version
    bump), which is what lets :mod:`repro.store.fsck` pinpoint *which*
    segment a flipped bit landed in instead of reporting a whole-payload
    mismatch. Session saves enable it.
    """

    def __init__(self, *, segment_digests: bool = False) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._meta: Any = {}
        self._chain: dict | None = None
        self._delta: dict | None = None
        self._segment_digests = segment_digests
        self._computed_digests: dict[str, str] = {}  # handed in by the caller

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Register one array under ``name`` (unique per snapshot); each gets its own segment.

        The writer emits no manifest alias. Files written while the index
        cache was persisted carry many, and readers resolve them
        (:meth:`Snapshot.alias_map`).
        """
        if name in self._arrays:
            raise StoreError(f"duplicate array name {name!r} in snapshot")
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise StoreError(f"array {name!r} has object dtype; snapshots store raw buffers only")
        self._arrays[name] = array

    def set_meta(self, meta: Any) -> None:
        """Attach the manifest's ``meta`` tree (must be JSON-serializable)."""
        self._meta = meta

    def set_chain(self, chain: "dict | None") -> None:
        """Attach the manifest's ``chain`` link (delta files; see module docs).

        Expected keys: ``parent`` (basename of the parent snapshot, resolved
        next to this file), ``parent_payload`` (the parent's
        :meth:`payload_digest`), and ``depth`` (1 for the first delta).
        """
        self._chain = None if chain is None else dict(chain)

    def set_delta(self, delta: "dict | None") -> None:
        """Attach the manifest's ``delta`` spec (see :mod:`repro.store.delta`)."""
        self._delta = None if delta is None else dict(delta)

    # ------------------------------------------------------------- digests
    def segment_digest_tasks(self) -> "dict[str, tuple[int, Callable[[], str]]]":
        """``{name: (nbytes, compute)}``: one independent digest task per segment.

        Empty unless the writer records per-segment digests. A caller that runs
        the tasks itself (a save spreads them over a thread pool) hands the
        results back through :meth:`set_segment_digests`; otherwise
        :meth:`save` computes each digest when it lays out the manifest.
        """
        if not self._segment_digests:
            return {}
        return {
            name: (
                int(array.nbytes),
                lambda name=name, array=array: segment_digest(
                    name, array.dtype.str, array.shape, array
                ),
            )
            for name, array in self._arrays.items()
        }

    def set_segment_digests(self, digests: "Mapping[str, str]") -> None:
        """Adopt the results of :meth:`segment_digest_tasks` so :meth:`save` skips them."""
        self._computed_digests = dict(digests)

    # ------------------------------------------------------------- layout
    def _layout(self) -> tuple[dict[str, dict], int, bytes]:
        """Segment offsets, manifest offset, and the manifest bytes."""
        entries: dict[str, dict] = {}
        offset = _aligned(_HEADER.size)
        for name, array in self._arrays.items():
            offset = _aligned(offset)
            entries[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
            if self._segment_digests:
                digest = self._computed_digests.get(name)
                if digest is None:
                    digest = segment_digest(name, array.dtype.str, array.shape, array)
                entries[name]["digest"] = digest
            offset += int(array.nbytes)
        tree: dict[str, Any] = {"arrays": entries, "meta": self._meta}
        if self._chain is not None:
            tree["chain"] = self._chain
        if self._delta is not None:
            tree["delta"] = self._delta
        manifest = json.dumps(tree, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        return entries, offset, manifest

    def save(self, path: str | os.PathLike) -> int:
        """Write the snapshot to ``path`` atomically (temp file + rename)."""
        entries, manifest_offset, manifest = self._layout()
        with atomic_output(path) as handle:
            handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, manifest_offset, len(manifest)))
            position = _HEADER.size
            for name, array in self._arrays.items():
                entry = entries[name]
                handle.write(b"\0" * (entry["offset"] - position))
                handle.write(array.reshape(-1).view(np.uint8).data)
                position = entry["offset"] + entry["nbytes"]
            handle.write(b"\0" * (manifest_offset - position))
            handle.write(manifest)
        return manifest_offset + len(manifest)

    def payload_digest(self) -> str:
        """BLAKE2b over every canonical segment (name + dtype + shape + bytes).

        Matches :meth:`Snapshot.payload_digest` of the written snapshot, so
        a reader can prove the whole payload survived storage bit for bit.
        Aliased names share their canonical segment and are hashed once,
        under the canonical (first-registered) name.
        """
        digest = _new_payload_digest()
        for name, array in self._arrays.items():
            _digest_segment(digest, name, array.dtype.str, array.shape, array)
        return digest.hexdigest()


class DeltaWriter(SnapshotWriter):
    """A :class:`SnapshotWriter` producing one append-only chain segment.

    Construction wires the ``chain`` link (parent basename + payload digest +
    depth); :meth:`SnapshotWriter.set_delta` attaches the array spec. The
    physical file is written exactly like a base snapshot — atomic
    temp-then-replace, 64-byte-aligned segments, one payload digest over its
    own segments — only the manifest distinguishes it.
    """

    def __init__(
        self,
        parent: str | os.PathLike,
        parent_payload: str,
        depth: int,
        *,
        segment_digests: bool = False,
    ) -> None:
        super().__init__(segment_digests=segment_digests)
        if depth < 1:
            raise StoreError("a delta's chain depth must be >= 1")
        self.set_chain(
            {
                "parent": os.path.basename(os.fspath(parent)),
                "parent_payload": parent_payload,
                "depth": int(depth),
            }
        )


class Snapshot:
    """Reader over one snapshot buffer, zero-copy by default.

    In mapped mode, :meth:`array` returns read-only views backed by
    the underlying storage (no bytes are copied); in copy mode every array is
    an independent writable copy and the source is released immediately.
    """

    def __init__(self, manifest: dict, buffer, *, copy: bool, closer=None) -> None:
        if not isinstance(manifest, dict) or "arrays" not in manifest:
            raise StoreError("snapshot manifest is malformed")
        self._entries: dict[str, dict] = manifest["arrays"]
        self.meta: Any = manifest.get("meta", {})
        #: Parent link for delta files (``None`` for base snapshots).
        self.chain: dict | None = manifest.get("chain")
        #: Delta array spec for delta files (``None`` for base snapshots).
        self.delta: dict | None = manifest.get("delta")
        #: Header format version of the source buffer.
        self.format_version: int = int(manifest.get("__format_version__", FORMAT_VERSION))
        #: Origin path, set by :meth:`open`.
        self.path: str | None = None
        self._closer = closer
        self._materialized: dict[str, np.ndarray] | None = None
        if copy:
            self._materialized = {
                name: self._view(buffer, name).copy() for name in self._entries
            }
            self._buffer = None
            self.close()
        else:
            self._buffer = buffer

    # -------------------------------------------------------- constructors
    @classmethod
    def open(cls, path: str | os.PathLike, *, mmap: bool = True) -> "Snapshot":
        """Open one snapshot file; ``mmap=True`` maps it read-only, zero-copy.

        Opens exactly the named file — a delta file opens fine (its
        :attr:`chain` / :attr:`delta` manifests are exposed) but holds only
        its own segments; resolve a whole chain with
        :meth:`SnapshotChain.open`.
        """
        if _faults.reads_are_faulty():
            # Read-corruption faults need the bytes in hand; serve the
            # snapshot from the (possibly bit-flipped) buffer instead of a
            # pristine mapping.
            data = _faults.read_bytes(os.fspath(path))
            snapshot = cls(cls._parse(data), data, copy=not mmap)
            snapshot.path = os.fspath(path)
            return snapshot
        if mmap:
            with open(path, "rb") as handle:
                if os.fstat(handle.fileno()).st_size < _HEADER.size:
                    # mmap refuses an empty file with a bare ValueError; refuse
                    # any file shorter than a header the way the copy path does.
                    raise StoreError("buffer too small to be a snapshot")
                mapped = mmap_module.mmap(handle.fileno(), 0, access=mmap_module.ACCESS_READ)
            try:
                manifest = cls._parse(mapped)
            except BaseException:
                mapped.close()
                raise
            snapshot = cls(manifest, mapped, copy=False, closer=mapped.close)
        else:
            with open(path, "rb") as handle:
                data = handle.read()
            snapshot = cls(cls._parse(data), data, copy=True)
        snapshot.path = os.fspath(path)
        return snapshot

    @staticmethod
    def _parse(buffer) -> dict:
        view = memoryview(buffer)
        try:
            if len(view) < _HEADER.size:
                raise StoreError("buffer too small to be a snapshot")
            magic, version, manifest_offset, manifest_length = _HEADER.unpack(
                view[: _HEADER.size]
            )
            if magic != MAGIC:
                raise StoreError("not a repro snapshot (bad magic)")
            if version not in SUPPORTED_VERSIONS:
                raise StoreError(
                    f"snapshot format version {version} is not supported "
                    f"(this reader understands versions {SUPPORTED_VERSIONS})"
                )
            if manifest_offset + manifest_length > len(view):
                raise StoreError("snapshot manifest extends past the buffer end")
            manifest = bytes(view[manifest_offset : manifest_offset + manifest_length])
        finally:
            view.release()
        try:
            parsed = json.loads(manifest.decode("utf-8"))
        except ValueError as exc:
            raise StoreError(f"snapshot manifest is not valid JSON: {exc}") from exc
        if isinstance(parsed, dict):
            parsed["__format_version__"] = int(version)
        return parsed

    # -------------------------------------------------------------- access
    def _view(self, buffer, name: str) -> np.ndarray:
        entry = self._entries[name]
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"segment {name!r} has a malformed manifest entry "
                f"(dtype {entry.get('dtype')!r}, shape {entry.get('shape')!r}): {exc}"
            ) from exc
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        try:
            array = np.frombuffer(buffer, dtype=dtype, count=count, offset=entry["offset"])
        except ValueError as exc:
            raise StoreError(
                f"segment {name!r} lies outside the snapshot buffer "
                f"(offset {entry['offset']}, {count} x {dtype}): truncated or "
                f"corrupted file ({exc})"
            ) from exc
        return array.reshape(shape)  # read-only: every source buffer is immutable

    def names(self) -> list[str]:
        """All array names, in manifest order."""
        return list(self._entries)

    def alias_map(self) -> "dict[str, str]":
        """``{alias_name: canonical_name}`` for every aliased manifest entry."""
        return {
            name: entry["alias_of"]
            for name, entry in self._entries.items()
            if "alias_of" in entry
        }

    def entry(self, name: str) -> dict:
        """The raw manifest entry of one array (dtype, shape, offset, nbytes)."""
        if name not in self._entries:
            raise StoreError(f"snapshot has no array {name!r}")
        return dict(self._entries[name])

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def array(self, name: str) -> np.ndarray:
        """The named array — a zero-copy view in mapped mode, else a copy."""
        if self._materialized is not None:
            return self._materialized[name]
        if self._buffer is None:
            raise StoreError("snapshot is closed")
        if name not in self._entries:
            raise StoreError(f"snapshot has no array {name!r}")
        return self._view(self._buffer, name)

    def total_bytes(self) -> int:
        """Total unique segment bytes (aliased entries share one segment)."""
        return sum(
            int(entry["nbytes"])
            for entry in self._entries.values()
            if "alias_of" not in entry
        )

    def payload_digest(self) -> str:
        """BLAKE2b over every canonical segment — the writer-side twin of
        :meth:`SnapshotWriter.payload_digest`; equal digests prove the whole
        payload (every array of every embedded object) is bit-identical to
        what was saved."""
        digest = _new_payload_digest()
        for name, entry in self._entries.items():
            if "alias_of" in entry:
                continue
            _digest_segment(
                digest, name, entry["dtype"], tuple(entry["shape"]), self.array(name)
            )
        return digest.hexdigest()

    def verify_segments(self) -> "list[tuple[str, bool, str]]":
        """Per-segment integrity check: ``[(name, ok, detail), ...]``.

        Canonical segments with a recorded ``digest`` manifest key (written
        by ``SnapshotWriter(segment_digests=True)``) are re-hashed and
        compared; segments whose bytes cannot even be viewed (truncation,
        malformed entries) fail with the reader's error. Snapshots written
        without per-segment digests report ``ok`` with an explanatory
        detail — whole-payload verification still covers them.
        """
        results: list[tuple[str, bool, str]] = []
        for name, entry in self._entries.items():
            if "alias_of" in entry:
                results.append((name, True, f"alias of {entry['alias_of']}"))
                continue
            try:
                array = self.array(name)
            except StoreError as exc:
                results.append((name, False, str(exc)))
                continue
            recorded = entry.get("digest")
            if recorded is None:
                results.append((name, True, "no per-segment digest recorded"))
                continue
            derived = segment_digest(name, entry["dtype"], tuple(entry["shape"]), array)
            if derived == recorded:
                results.append((name, True, "digest verified"))
            else:
                results.append(
                    (
                        name,
                        False,
                        f"segment digest mismatch (recorded {recorded}, derived "
                        f"{derived}): the {name.split('/')[0]!r} bundle is corrupted",
                    )
                )
        return results

    # ------------------------------------------------------------ lifetime
    def close(self) -> None:
        """Release the underlying buffer (mapped mode); copies stay usable."""
        self._buffer = None
        closer, self._closer = self._closer, None
        if closer is not None:
            try:
                closer()
            except BufferError:
                # Zero-copy views are still alive; the mapping stays open
                # until they are collected (the OS reclaims it at exit).
                pass

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SnapshotChain:
    """A resolved base → delta₁ → … → deltaₖ snapshot chain, base first.

    :meth:`open` starts from any chain member (usually the tip) and walks
    the manifest ``chain`` links, resolving each parent by basename in the
    child's directory. The chain holds one open :class:`Snapshot` per file;
    :attr:`snapshots` is ordered base first, so ``snapshots[-1]`` (also
    :attr:`tip`) carries the logical state the chain reconstructs.

    Opening performs structural checks only (links resolve, depths agree);
    :meth:`verify_links` additionally re-derives every parent's payload
    digest and compares it to the digest its child recorded at append time,
    proving no file in the ancestry was modified since the delta was diffed
    against it.
    """

    def __init__(self, snapshots: "list[Snapshot]", paths: "list[str]") -> None:
        if not snapshots:
            raise StoreError("a snapshot chain needs at least one snapshot")
        self.snapshots = snapshots
        self.paths = paths

    @classmethod
    def open(cls, path: str | os.PathLike, *, mmap: bool = True, max_depth: int = 4096) -> "SnapshotChain":
        """Open ``path`` and every ancestor it links to (tip → … → base)."""
        snapshots: list[Snapshot] = []
        paths: list[str] = []
        current = os.fspath(path)
        try:
            while True:
                snapshot = Snapshot.open(current, mmap=mmap)
                snapshots.append(snapshot)
                paths.append(current)
                chain = snapshot.chain
                if chain is None:
                    if snapshot.delta is not None:
                        raise StoreError(
                            f"snapshot {current!r} carries a delta spec but no chain link"
                        )
                    break
                if len(snapshots) > max_depth:
                    raise StoreError(f"snapshot chain exceeds {max_depth} segments (cycle?)")
                parent = os.path.join(os.path.dirname(current) or ".", chain["parent"])
                if not os.path.exists(parent):
                    raise StoreError(
                        f"snapshot {current!r} links to missing parent {chain['parent']!r} "
                        f"(expected at {parent!r})"
                    )
                current = parent
        except BaseException:
            for snapshot in snapshots:
                snapshot.close()
            raise
        snapshots.reverse()
        paths.reverse()
        for depth, snapshot in enumerate(snapshots):
            recorded = 0 if snapshot.chain is None else int(snapshot.chain["depth"])
            if recorded != depth:
                raise StoreError(
                    f"chain segment {paths[depth]!r} records depth {recorded} "
                    f"but sits at depth {depth}"
                )
        return cls(snapshots, paths)

    # ------------------------------------------------------------ structure
    @property
    def base(self) -> Snapshot:
        return self.snapshots[0]

    @property
    def tip(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def depth(self) -> int:
        """Number of delta segments on top of the base (0 = base only)."""
        return len(self.snapshots) - 1

    @property
    def meta(self) -> Any:
        """The tip's manifest meta — the logical state the chain reconstructs."""
        return self.tip.meta

    def total_bytes(self) -> int:
        """Unique payload bytes across every chain segment."""
        return sum(snapshot.total_bytes() for snapshot in self.snapshots)

    # ---------------------------------------------------------- verification
    def verify_links(self) -> None:
        """Check every parent's payload digest against its child's record."""
        for child_index in range(1, len(self.snapshots)):
            child = self.snapshots[child_index]
            parent = self.snapshots[child_index - 1]
            recorded = child.chain["parent_payload"] if child.chain else None
            derived = parent.payload_digest()
            if recorded != derived:
                raise StoreError(
                    f"chain link broken: {self.paths[child_index]!r} was appended onto a "
                    f"parent with payload {recorded}, but {self.paths[child_index - 1]!r} "
                    f"now derives {derived} (parent modified or replaced)"
                )

    # ------------------------------------------------------------- lifetime
    def close(self) -> None:
        for snapshot in self.snapshots:
            snapshot.close()

    def __enter__(self) -> "SnapshotChain":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------ payload digests
def _new_payload_digest():
    import hashlib

    return hashlib.blake2b(digest_size=16)


def buffer_key(array: np.ndarray) -> tuple:
    """``(data pointer, dtype, shape)``: equal keys of C-contiguous arrays mean one buffer."""
    return (array.__array_interface__["data"][0], array.dtype.str, array.shape)


def raw_bytes(array: np.ndarray) -> np.ndarray:
    """The C-order bytes of ``array`` as a flat ``uint8`` view, for hashing in place.

    Equal to ``array.tobytes()`` byte for byte, without the copy when the
    array is already C-contiguous; hashlib releases the GIL while it reads a
    large buffer, so digests of different arrays can run on different threads.
    """
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def _digest_segment(digest, name: str, dtype_str: str, shape, array: np.ndarray) -> None:
    digest.update(name.encode())
    digest.update(str(dtype_str).encode())
    digest.update(str(tuple(shape)).encode())
    digest.update(raw_bytes(array))


def segment_digest(name: str, dtype_str: str, shape, array: np.ndarray) -> str:
    """Content digest of one segment (same recipe the payload digest folds)."""
    digest = _new_payload_digest()
    _digest_segment(digest, name, dtype_str, shape, array)
    return digest.hexdigest()


# -------------------------------------------------------------- string tables
def encode_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into one UTF-8 byte array plus int64 CSR offsets."""
    blobs = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in blobs], out=offsets[1:])
    utf8 = np.frombuffer(b"".join(blobs), dtype=np.uint8).copy()
    return utf8, offsets


def decode_strings(utf8: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of :func:`encode_strings`."""
    blob = utf8.tobytes()
    bounds = offsets.tolist()
    return [blob[start:stop].decode("utf-8") for start, stop in zip(bounds[:-1], bounds[1:])]


def string_table_arrays(strings: Iterable[str]) -> "dict[str, np.ndarray]":
    """A string list as its ``{"#utf8": bytes, "#offsets": bounds}`` table.

    The object codecs store it under a name prefix; :func:`strings_from_arrays`
    reads it back.
    """
    utf8, offsets = encode_strings(strings)
    return {"#utf8": utf8, "#offsets": offsets}


def strings_from_arrays(arrays: "Mapping[str, np.ndarray]", prefix: str) -> list[str]:
    """Decode a string table stored under ``prefix`` inside an arrays mapping."""
    return decode_strings(arrays[prefix + "#utf8"], arrays[prefix + "#offsets"])
