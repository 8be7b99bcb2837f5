"""Integrity checking, repair, rollback, and chain GC for snapshot stores.

A snapshot store directory holds base snapshots, append-only chain deltas,
retirement markers left by compaction, the writer ``.lock``, and — after a
crash — partial ``*.tmp.<pid>`` files. This module is the offline half of
the durability story (:mod:`repro.store.format` is the online half):

* :func:`fsck_store` scans one directory, verifies every snapshot file
  (header, manifest, per-segment digests, whole-payload digest, chain links
  and depths), classifies the damage, sweeps stale partials, and — in
  repair mode — quarantines files whose state can never be reconstructed
  (damaged files and every descendant whose ancestry runs through one).
  fsck **repairs** what is mechanically recoverable (stale partials, stale
  locks via the lock's own takeover, markers whose GC half-finished) and
  **quarantines** what is not (bit rot inside a segment, broken chain
  links): quarantined files move to ``quarantine/`` untouched, never
  deleted, so a better replica can still be salvaged by hand.
* :func:`deepest_intact` walks a chain from its tip and returns the deepest
  member whose *entire* ancestry verifies — the opt-in ``--allow-rollback``
  load target after tip damage.
* :func:`gc_store` deletes chain files superseded by a compaction. GC is
  strictly **marker-driven**: ``compact_session(..., retire=True)`` records
  which files the compacted base replaces; GC honours a marker only after
  re-verifying every byte of the compacted file, and never deletes a
  file reachable from any surviving chain tip (a sibling chain sharing the
  superseded base keeps the base alive). A crash anywhere in
  compact → mark → gc leaves either the old chain, the marker, or both —
  every one of which the next gc run resolves.
* :func:`sweep_partials` removes crashed writers' temp files — all of them
  when the caller holds the writer lock (no writer can be mid-write), else
  only those whose embedded pid is dead.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass, field

from ..exceptions import StoreError
from .format import MAGIC, Snapshot, SnapshotChain, atomic_output
from .lock import LOCK_NAME, StoreLock, pid_alive

#: Partial files left by :func:`repro.store.format.atomic_output`.
_TMP_RE = re.compile(r"\.tmp\.(\d+)$")

#: Sidecar written by ``compact_session(retire=True)`` next to the compacted
#: base, naming the chain files it supersedes (GC input).
RETIRE_SUFFIX = ".retired.json"

#: Subdirectory damaged files are moved (never deleted) into by ``--repair``.
QUARANTINE_DIR = "quarantine"

#: Snapshot meta ``"type"`` of session snapshots, whose digest record fsck requires.
SESSION_TYPE = "multiem_session"


# ---------------------------------------------------------------- primitives
def sweep_partials(directory, *, all_pids: bool = False) -> "list[str]":
    """Remove stale ``*.tmp.<pid>`` partial files; returns what was removed.

    ``all_pids=True`` is only safe under the writer lock (no writer can be
    mid-write); otherwise only partials whose recorded pid is dead on this
    host are swept — a live writer's in-flight temp is never touched.
    """
    directory = os.fspath(directory) or "."
    removed: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        match = _TMP_RE.search(name)
        if match is None:
            continue
        if not all_pids and pid_alive(int(match.group(1))):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(path)
    return removed


def is_snapshot_file(path) -> bool:
    """Whether ``path`` starts with the snapshot magic (cheap, header-only)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


@dataclass
class FileStatus:
    """One file's verdict in an fsck report."""

    name: str
    kind: str  # "base" | "delta" | "partial" | "marker" | "lock" | "other"
    status: str  # "ok" | "damaged" | "orphaned" | "swept" | "quarantined"
    detail: str = ""
    #: Derived payload digest (ok snapshot files only; feeds link checks).
    payload: str | None = None
    #: Parent basename and payload digest recorded in the manifest (delta files only).
    parent: str | None = None
    parent_payload: str | None = None
    depth: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "swept", "quarantined")


@dataclass
class FsckReport:
    directory: str
    files: "list[FileStatus]" = field(default_factory=list)
    swept: "list[str]" = field(default_factory=list)
    quarantined: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No unresolved damage (quarantined/swept files count as handled)."""
        return all(status.ok for status in self.files)

    def format_table(self) -> str:
        """Human-readable per-file status table (the CLI's output)."""
        width = max([len(s.name) for s in self.files] + [4])
        lines = [f"{'file':<{width}}  {'kind':<7}  {'status':<11}  detail"]
        for status in self.files:
            lines.append(
                f"{status.name:<{width}}  {status.kind:<7}  {status.status:<11}  {status.detail}"
            )
        return "\n".join(lines)


def check_snapshot_file(path) -> FileStatus:
    """Verify one snapshot file in isolation (no chain resolution).

    Checks, in order: header + manifest parse, every segment's bounds and
    recorded per-segment digest (each byte hashed once), and — for session
    snapshots, which must record one — the payload digest under the file's
    own scheme. Each failure mode carries its own message so
    a flipped bit in ``table/…`` reads differently from a truncated manifest.
    """
    name = os.path.basename(os.fspath(path))
    try:
        snapshot = Snapshot.open(path, mmap=True)
    except (StoreError, OSError, ValueError, struct.error) as exc:
        return FileStatus(name, "unknown", "damaged", f"unreadable: {exc}")
    with snapshot:
        chain = snapshot.chain or {}
        kind = "delta" if snapshot.chain is not None else "base"
        link = {
            "parent": chain.get("parent"),
            "parent_payload": chain.get("parent_payload"),
            "depth": int(chain.get("depth", 0)),
        }
        failures = [
            f"{segment}: {detail}"
            for segment, passed, detail in snapshot.verify_segments()
            if not passed
        ]
        if failures:
            return FileStatus(name, kind, "damaged", "; ".join(failures), **link)
        try:
            payload = snapshot.payload_digest()
        except StoreError as exc:
            return FileStatus(name, kind, "damaged", str(exc), **link)
        meta = snapshot.meta if isinstance(snapshot.meta, dict) else {}
        digests = meta.get("digests") if isinstance(meta.get("digests"), dict) else {}
        recorded = digests.get("payload")
        if (meta.get("type") == SESSION_TYPE and not digests) or (
            "payload_scheme" in digests and recorded is None
        ):
            return FileStatus(name, kind, "damaged", "no payload digest recorded", **link)
        if recorded is not None and recorded != payload:
            return FileStatus(
                name,
                kind,
                "damaged",
                f"payload digest mismatch (recorded {recorded}, derived {payload})",
                **link,
            )
        if snapshot.chain is not None and snapshot.delta is None:
            return FileStatus(name, kind, "damaged", "chain link without a delta spec", **link)
        return FileStatus(name, kind, "ok", "verified", payload=payload, **link)


def chain_link_failure(
    status: FileStatus, parent: "FileStatus | None"
) -> "tuple[str, str] | None":
    """Why an intact delta's link to its parent fails, as ``(status, detail)``.

    ``status`` is a verified delta's verdict and ``parent`` its parent
    file's (``None`` when the parent is missing). Returns ``None`` when the
    link holds: the parent verifies, sits one level shallower, and still
    derives the payload digest the delta was appended onto.
    """
    if parent is None:
        return "orphaned", f"parent {status.parent!r} is missing from the directory"
    if parent.status != "ok":
        return "orphaned", (
            f"chain link broken: ancestry runs through {status.parent!r} ({parent.status})"
        )
    if status.depth != parent.depth + 1:
        return "damaged", (
            f"chain depth {status.depth} does not follow parent depth {parent.depth}"
        )
    if status.parent_payload != parent.payload:
        return "damaged", (
            f"chain link broken: appended onto parent payload {status.parent_payload}, "
            f"but {status.parent!r} now derives {parent.payload} "
            "(parent modified or replaced)"
        )
    return None


# -------------------------------------------------------------------- fsck
def fsck_store(directory, *, repair: bool = False) -> FsckReport:
    """Verify every snapshot file in ``directory``; optionally quarantine.

    Takes the writer lock (a concurrent writer would make every verdict
    stale), sweeps all partial files, verifies each snapshot file and every
    chain link between them, and marks files whose ancestry runs through
    damage as ``orphaned``. With ``repair=True``, damaged and orphaned
    files are moved into ``quarantine/`` — never deleted — so the remaining
    directory holds only loadable state.
    """
    directory = os.fspath(directory) or "."
    report = FsckReport(directory=os.path.abspath(directory))
    try:
        partials_before = [n for n in os.listdir(directory) if _TMP_RE.search(n)]
    except OSError:
        partials_before = []
    with StoreLock(directory):
        # Lock acquisition swept every partial (lock held => no live writer).
        report.swept = [
            os.path.join(directory, name)
            for name in partials_before
            if not os.path.exists(os.path.join(directory, name))
        ]
        for name in partials_before:
            report.files.append(
                FileStatus(name, "partial", "swept", "stale partial from a crashed writer")
            )
        statuses: dict[str, FileStatus] = {}
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            if name == LOCK_NAME:
                continue  # that's us
            if _TMP_RE.search(name):
                report.files.append(FileStatus(name, "partial", "swept", "stale partial"))
                continue
            if name.endswith(RETIRE_SUFFIX):
                report.files.append(
                    FileStatus(name, "marker", "ok", "compaction retirement marker")
                )
                continue
            if not is_snapshot_file(path):
                continue
            statuses[name] = check_snapshot_file(path)

        # Chain links between individually-intact files, to a fixed point: a
        # descendant of damage can never reconstruct.
        changed = True
        while changed:
            changed = False
            for status in statuses.values():
                if status.status != "ok" or status.parent is None:
                    continue
                failure = chain_link_failure(status, statuses.get(status.parent))
                if failure is not None:
                    status.status, status.detail = failure
                    changed = True

        if repair:
            quarantine = os.path.join(directory, QUARANTINE_DIR)
            for name, status in statuses.items():
                if status.status not in ("damaged", "orphaned"):
                    continue
                os.makedirs(quarantine, exist_ok=True)
                target = os.path.join(quarantine, name)
                suffix = 0
                while os.path.exists(target):
                    suffix += 1
                    target = os.path.join(quarantine, f"{name}.{suffix}")
                os.replace(os.path.join(directory, name), target)
                status.detail = f"[{status.status}] {status.detail} -> quarantined to {target}"
                status.status = "quarantined"
                report.quarantined.append(target)
        report.files.extend(statuses.values())
    return report


def deepest_intact(tip_path) -> "str | None":
    """Deepest chain member (from ``tip_path``) whose whole ancestry verifies.

    Walks the recorded parent links tip → base as far as manifests remain
    parseable, then returns the first (deepest) member that opens, link-
    verifies, and passes every per-file digest check — the state an
    ``--allow-rollback`` load falls back to. ``None`` when not even the
    base survives.
    """
    tip_path = os.fspath(tip_path)
    directory = os.path.dirname(tip_path) or "."
    ancestry: list[str] = []
    current = tip_path
    while True:
        ancestry.append(current)
        try:
            with Snapshot.open(current) as snapshot:
                chain = snapshot.chain
        except (StoreError, OSError, ValueError, struct.error):
            break  # unreadable manifest: deeper ancestors are unreachable
        if chain is None:
            break
        parent = os.path.join(directory, chain["parent"])
        if not os.path.exists(parent):
            break
        current = parent
    for candidate in ancestry:
        if check_snapshot_file(candidate).status != "ok":
            continue
        try:
            with SnapshotChain.open(candidate) as chain:
                chain.verify_links()
                if all(
                    check_snapshot_file(path).status == "ok" for path in chain.paths[:-1]
                ):
                    return candidate
        except (StoreError, OSError, ValueError, struct.error):
            continue
    return None


# ---------------------------------------------------------------------- GC
def retirement_marker_path(compacted_path) -> str:
    return os.fspath(compacted_path) + RETIRE_SUFFIX


def write_retirement_marker(compacted_path, compacted_payload: str, superseded: dict) -> str:
    """Record that ``compacted_path`` supersedes the ``superseded`` chain files.

    ``superseded`` maps basename → payload digest at retirement time. The
    marker is the *only* thing that authorizes GC to delete those files, and
    GC re-verifies the compacted file, every byte, before honouring it.
    """
    marker = retirement_marker_path(compacted_path)
    payload = {
        "compacted": os.path.basename(os.fspath(compacted_path)),
        "compacted_payload": compacted_payload,
        "superseded": dict(superseded),
    }
    with atomic_output(marker, "w") as handle:
        json.dump(payload, handle, indent=1)
    return marker


@dataclass
class GcReport:
    directory: str
    removed: "list[str]" = field(default_factory=list)
    kept: "list[tuple[str, str]]" = field(default_factory=list)  # (name, reason)
    markers_cleared: "list[str]" = field(default_factory=list)
    dry_run: bool = False

    def format_table(self) -> str:
        lines = [f"gc {self.directory} ({'dry run' if self.dry_run else 'applied'}):"]
        for name in self.removed:
            lines.append(f"  remove  {name}")
        for name, reason in self.kept:
            lines.append(f"  keep    {name}  ({reason})")
        for name in self.markers_cleared:
            lines.append(f"  cleared {name}")
        if not (self.removed or self.kept or self.markers_cleared):
            lines.append("  nothing to collect")
        return "\n".join(lines)


def _ancestry_closure(names: "set[str]", parents: "dict[str, str | None]") -> "set[str]":
    """All files reachable from ``names`` by following parent links."""
    live: set[str] = set()
    stack = list(names)
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        parent = parents.get(name)
        if parent is not None:
            stack.append(parent)
    return live


def gc_store(directory, *, dry_run: bool = False) -> GcReport:
    """Delete chain files superseded by verified compactions.

    Safety invariants, in decreasing order of authority:

    1. Only files named in a retirement marker are ever candidates.
    2. A marker is honoured only when its compacted file exists, every one
       of its segments verifies (:func:`check_snapshot_file`) and its
       payload digest re-derives to the recorded one (a crash between
       compact and marker write, or a corrupted compacted file, keeps the
       whole superseded chain).
    3. A candidate reachable from any *surviving* chain tip — a tip that is
       not itself superseded — is kept (sibling chains share bases).

    Idempotent and crash-resumable: a marker is cleared only once every
    file it names is gone; re-running gc finishes a half-done pass.
    """
    directory = os.fspath(directory) or "."
    report = GcReport(directory=os.path.abspath(directory), dry_run=dry_run)
    with StoreLock(directory):
        parents: dict[str, str | None] = {}
        markers: list[str] = []
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            if name.endswith(RETIRE_SUFFIX):
                markers.append(name)
                continue
            if not is_snapshot_file(path):
                continue
            try:
                with Snapshot.open(path) as snapshot:
                    parents[name] = snapshot.chain.get("parent") if snapshot.chain else None
            except (StoreError, OSError, ValueError, struct.error):
                parents[name] = None  # damaged: fsck's problem, never gc's

        referenced = {parent for parent in parents.values() if parent is not None}
        tips = {name for name in parents if name not in referenced}

        superseded_by_marker: dict[str, dict] = {}
        honoured_compacted: list[str] = []
        for marker_name in markers:
            marker_path = os.path.join(directory, marker_name)
            try:
                with open(marker_path, "r", encoding="utf-8") as handle:
                    marker = json.load(handle)
                compacted = marker["compacted"]
                superseded = dict(marker["superseded"])
                recorded_payload = marker["compacted_payload"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                report.kept.append((marker_name, f"unreadable marker: {exc}"))
                continue
            compacted_path = os.path.join(directory, compacted)
            verdict = None
            if not os.path.exists(compacted_path):
                verdict = f"compacted file {compacted!r} is missing"
            else:
                # Every byte, not only the payload fold, which proves the manifest alone.
                status = check_snapshot_file(compacted_path)
                if status.status != "ok":
                    verdict = f"compacted file {compacted!r} is {status.status}: {status.detail}"
                elif status.payload != recorded_payload:
                    verdict = (
                        f"compacted file {compacted!r} payload {status.payload} does not "
                        f"match the marker's {recorded_payload}"
                    )
            if verdict is not None:
                report.kept.append((marker_name, f"not honoured: {verdict}"))
                continue
            honoured_compacted.append(compacted)
            superseded_by_marker[marker_name] = superseded

        all_superseded = {
            name for superseded in superseded_by_marker.values() for name in superseded
        }
        surviving_tips = {name for name in tips if name not in all_superseded}
        live = _ancestry_closure(surviving_tips, parents)
        live.update(honoured_compacted)

        for marker_name, superseded in superseded_by_marker.items():
            remaining = 0
            for name in sorted(superseded):
                path = os.path.join(directory, name)
                if not os.path.exists(path):
                    continue  # a previous (crashed) gc pass got it
                if name in live:
                    report.kept.append(
                        (name, "reachable from a surviving chain tip; kept")
                    )
                    remaining += 1
                    continue
                report.removed.append(name)
                if not dry_run:
                    os.unlink(path)
                else:
                    remaining += 1
            if remaining == 0 and not dry_run:
                os.unlink(os.path.join(directory, marker_name))
                report.markers_cleared.append(marker_name)
    return report
