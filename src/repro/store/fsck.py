"""Integrity checking, repair, rollback, and chain GC for snapshot stores.

A snapshot store directory holds base snapshots, append-only chain deltas,
retirement markers left by compaction, the writer ``.lock``, and — after a
crash — partial ``*.tmp.<pid>`` files. This module is the offline half of
the durability story (:mod:`repro.store.format` is the online half).

Whether a snapshot is intact is decided by one function per question, and a
verified load, fsck, ``snapshot inspect``, gc, the rollback target and the
server's chain-tip choice all call the same ones: which files a directory holds
(:func:`read_store`, manifests only; a file that does not open is listed
with the reader's error), whether one file is intact
(:func:`check_snapshot_file`), and whether a chain link holds
(:func:`repro.store.format.link_failure`).

* :func:`fsck_store` scans one directory, verifies every snapshot file
  and every chain link, classifies the damage, sweeps stale partials, and — in
  repair mode — quarantines files whose state can never be reconstructed
  (damaged files and every descendant whose ancestry runs through one).
  fsck **repairs** what is mechanically recoverable (stale partials, stale
  locks via the lock's own takeover, markers whose GC half-finished) and
  **quarantines** what is not (bit rot inside a segment, broken chain
  links): quarantined files move to ``quarantine/`` untouched, never
  deleted, so a better replica can still be salvaged by hand.
* :func:`verify_chain` judges a chain the way fsck judges a directory
  (``snapshot inspect`` prints its tip's verdict), and
  :func:`deepest_intact` returns the deepest member whose *entire* ancestry
  verifies — the opt-in ``--allow-rollback`` load target after tip damage.
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

import contextlib
import json
import os
import re
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from ..exceptions import StoreError
from .format import Snapshot, atomic_output, link_failure
from .lock import StoreLock, pid_alive

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


#: What opening a file that is not an intact snapshot can raise.
_READ_ERRORS = (StoreError, OSError, ValueError, struct.error)


class Member(NamedTuple):
    """One file of a store directory as its manifest describes it."""

    parent: "str | None"  #: the parent's basename (delta files), else None
    depth: int  #: chain depth (0 for a base and for an unreadable file)
    error: "str | None" = None  #: why the file does not open as a snapshot


def _read_member(path) -> Member:
    try:
        with Snapshot.open(path) as snapshot:
            return Member(snapshot.chain and snapshot.chain["parent"], snapshot.depth)
    except _READ_ERRORS as exc:
        return Member(None, 0, f"unreadable: {exc}")


def read_store(directory) -> "dict[str, Member]":
    """Every snapshot file of ``directory`` by name, read from its manifest alone.

    Every regular file is one, and a file that does not open as a snapshot
    carries the reader's error; exempt are dotfiles (the writer ``.lock``),
    ``*.tmp.<pid>`` partials, retirement markers and subdirectories
    (``quarantine/``).
    """
    directory = os.fspath(directory) or "."
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return {}
    return {
        name: _read_member(os.path.join(directory, name))
        for name in names
        if not (name.startswith(".") or _TMP_RE.search(name) or name.endswith(RETIRE_SUFFIX))
        and os.path.isfile(os.path.join(directory, name))
    }


def _markers(directory: str) -> "list[str]":
    return sorted(
        name
        for name in os.listdir(directory)
        if name.endswith(RETIRE_SUFFIX) and os.path.isfile(os.path.join(directory, name))
    )


@dataclass
class FileStatus:
    """One file's verdict in an fsck report."""

    name: str
    kind: str  # "base" | "delta" | "marker" | "partial" | "unknown"
    status: str  # "ok" | "damaged" | "orphaned" | "swept" | "quarantined"
    detail: str = ""
    #: Derived payload digest (ok snapshot files only; feeds link checks).
    payload: str | None = None
    #: The manifest's chain link (delta files only; see :func:`~repro.store.format.link_failure`).
    link: dict | None = None

    @property
    def parent(self) -> "str | None":
        return None if self.link is None else self.link["parent"]

    @property
    def depth(self) -> int:
        return 0 if self.link is None else self.link["depth"]

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


def check_snapshot_file(source, *, defer_blocks: bool = False) -> FileStatus:
    """The one per-file check: is this snapshot intact on its own (no chain resolution)?

    ``source`` is a path or an open :class:`Snapshot` (a load checks the
    mapping it folds). Checks, in order: header + manifest parse, every
    segment's bounds and recorded digest (each byte hashed once), and the
    payload digest under the file's own scheme, which session files and
    files naming the scheme must record. ``defer_blocks=True`` leaves the
    ``store/block*`` segments to a load's check at first read. Each failure
    mode has its own message, so a flipped bit in ``table/…`` reads
    differently from a truncated manifest.
    """
    if isinstance(source, Snapshot):
        name, opened = os.path.basename(source.path or ""), contextlib.nullcontext(source)
    else:
        name = os.path.basename(os.fspath(source))
        try:
            opened = Snapshot.open(source)
        except _READ_ERRORS as exc:
            return FileStatus(name, "unknown", "damaged", f"unreadable: {exc}")
    with opened as snapshot:
        kind = "base" if snapshot.chain is None else "delta"
        status = FileStatus(name, kind, "damaged", link=snapshot.chain)
        names = [n for n in snapshot.names() if not (defer_blocks and n.startswith("store/block"))]
        failures = [f"{n}: {d}" for n, ok, d in snapshot.verify_segments(names) if not ok]
        if failures:
            status.detail = f"segment digests do not match its contents ({'; '.join(failures)})"
            return status
        try:
            payload = snapshot.payload_digest()
        except StoreError as exc:
            status.detail = str(exc)
            return status
        meta = snapshot.meta if isinstance(snapshot.meta, dict) else {}
        digests = meta.get("digests") if isinstance(meta.get("digests"), dict) else {}
        recorded = digests.get("payload")
        session_without_record = meta.get("type") == SESSION_TYPE and not digests
        required = session_without_record or "payload_scheme" in digests
        if recorded != payload and (recorded is not None or required):
            status.detail = (
                f"payload digests do not match its manifest (recorded {recorded}, "
                f"derived {payload}): corrupted file"
            )
            return status
        status.status, status.detail, status.payload = "ok", "verified", payload
        return status


def _verify(directory: str, names) -> "dict[str, FileStatus]":
    """Each named file's own check, then every link between them, to a fixed point:
    a descendant of damage, or of a missing parent, is orphaned (it can never
    reconstruct), and any other link failure damages the child."""
    statuses = {name: check_snapshot_file(os.path.join(directory, name)) for name in names}
    changed = True
    while changed:
        changed = False
        for status in statuses.values():
            if status.status != "ok" or status.link is None:
                continue
            parent = statuses.get(status.parent)
            if parent is not None and parent.status != "ok":
                status.status = "orphaned"
                status.detail = (
                    f"chain link broken: ancestry runs through {status.parent!r} ({parent.status})"
                )
                changed = True
                continue
            failure = link_failure(
                status.link,
                None if parent is None else parent.depth,
                None if parent is None else parent.payload,
            )
            if failure is not None:
                status.status = "orphaned" if parent is None else "damaged"
                status.detail = failure
                changed = True
    return statuses


# -------------------------------------------------------------------- fsck
def fsck_store(directory, *, repair: bool = False) -> FsckReport:
    """Verify every snapshot file in ``directory``; optionally quarantine.

    Takes the writer lock (a concurrent writer would make every verdict
    stale), sweeps all partial files, verifies each file :func:`read_store`
    lists and every chain link between them, and marks files whose ancestry
    runs through damage as ``orphaned``. With ``repair=True``, damaged and
    orphaned files are moved into ``quarantine/`` — never deleted — so the
    remaining directory holds only loadable state.
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
        for name in _markers(directory):
            report.files.append(FileStatus(name, "marker", "ok", "compaction retirement marker"))
        statuses = _verify(directory, read_store(directory))

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


def verify_chain(tip_path) -> "list[FileStatus]":
    """The verdict of every member of the chain ending at ``tip_path``, tip first,
    judged as :func:`fsck_store` judges a directory: a member is ``ok`` when its
    bytes and its whole ancestry verify, which is what a verified load checks."""
    directory, name = os.path.split(os.path.abspath(os.fspath(tip_path)))
    members = read_store(directory)
    members.setdefault(name, _read_member(os.path.join(directory, name)))
    ancestry: list[str] = []
    while name in members and name not in ancestry:
        ancestry.append(name)
        name = members[name].parent
    statuses = _verify(directory, ancestry)
    return [statuses[name] for name in ancestry]


def deepest_intact(tip_path) -> "str | None":
    """Deepest chain member (from ``tip_path``) whose whole ancestry verifies.

    The first ``ok`` member of :func:`verify_chain`, tip first — the state
    an ``--allow-rollback`` load falls back to. ``None`` when not even the
    base survives.
    """
    directory = os.path.dirname(os.fspath(tip_path)) or "."
    for status in verify_chain(tip_path):
        if status.status == "ok":
            return os.path.join(directory, status.name)
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
        # A file that does not open has no parent: fsck's problem, never gc's.
        parents = {name: member.parent for name, member in read_store(directory).items()}
        referenced = {parent for parent in parents.values() if parent is not None}
        tips = {name for name in parents if name not in referenced}

        superseded_by_marker: dict[str, dict] = {}
        honoured_compacted: list[str] = []
        for marker_name in _markers(directory):
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
