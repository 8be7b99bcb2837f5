"""Deterministic, seeded fault injection for the store and serving planes.

The durability claims of :mod:`repro.store` (crash-safe saves, fsck/repair,
chain GC) and the self-healing claims of :mod:`repro.serve.dispatch` (retry
on a sibling, respawn) are only worth something if they are *tested*
against the failures they guard — a torn write, a dropped fsync, a failed
``os.replace``, a flipped bit, a worker killed mid-request. This module is
the single switchboard those failures come through:

* **VFS faults** — :mod:`repro.store.format` routes every durable file
  operation through the hooks below (:func:`open_for_write`,
  :func:`fsync_handle`, :func:`fsync_dir`, :func:`replace`,
  :func:`read_bytes`). With no plan active every hook is a thin passthrough;
  with a plan active the hooks count operation boundaries and fire the
  plan's faults at exact, reproducible points.
* **Serve-worker faults** — :mod:`repro.serve.dispatch` asks
  :func:`claim_worker_fault` per dispatched request; a claimed fault travels to
  the worker, which executes it (``os._exit`` for *kill*) before touching the
  task. Claims happen parent-side, so a one-shot fault stays one-shot even
  though the faulted worker dies.

Activation
----------

* **Tests** use the :func:`inject` context manager::

      with faults.inject(FaultPlan(crash_write=3)):
          matcher.save(path)        # raises InjectedCrash at write #3

* **Whole processes** (subprocess tests, manual chaos runs) set the
  ``REPRO_FAULTS`` environment variable to a comma/semicolon-separated
  ``key=value`` spec, parsed by :func:`plan_from_spec` on first use::

      REPRO_FAULTS="crash_write=3,torn=0.5" python -m repro.cli snapshot ...

Crash-point enumeration
-----------------------

A default :class:`FaultPlan` fires nothing but still counts every boundary
in :attr:`FaultPlan.counters` — run the operation once under an observer
plan, read ``plan.counters["write"]`` / ``["fsync"]`` / ``["replace"]``, and
parametrize one crash per boundary. That is how the crash-point matrix in
``tests/store/test_faults.py`` covers *every* write boundary of
``save``/``append``/``compact`` without hard-coding layout knowledge.

Crash semantics
---------------

:class:`InjectedCrash` simulates the *machine dying*: cleanup code must
behave as if the process vanished (e.g. ``atomic_output`` leaves its partial
temp file on disk instead of unlinking it) so recovery paths see exactly
what a real crash leaves behind. :class:`InjectedFault` simulates an
*error returned to the caller* (a failed ``os.replace``): normal error
handling — including cleanup — applies.

Everything is deterministic: faults fire at fixed operation indices, and the
only derived quantity (which byte of a torn write survives, which bit flips
on a read) comes from ``seed`` through a fixed recurrence, never from global
RNG state.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

from .exceptions import ReproError


class InjectedFault(ReproError):
    """A deliberately injected failure, reported to the caller like a real one."""


class InjectedCrash(InjectedFault):
    """A simulated process/machine death: cleanup handlers must NOT tidy up."""


@dataclass
class FaultPlan:
    """One deterministic fault schedule; all indices are 1-based and counted
    per plan, so re-running the same operation under the same plan fires the
    same fault at the same boundary.

    A plan with every fault field left at ``None``/``False`` is a pure
    *observer*: it fires nothing but still counts boundaries in
    :attr:`counters` (keys ``"write"``, ``"fsync"``, ``"fsync_dir"``,
    ``"replace"``, ``"read"``).
    """

    seed: int = 0
    #: Tear the N-th counted ``write()`` call: only ``torn_fraction`` of its
    #: bytes land, then the process "dies" (:class:`InjectedCrash`).
    crash_write: int | None = None
    torn_fraction: float = 0.5
    #: Die at the N-th file-fsync boundary (data may or may not have landed).
    crash_fsync: int | None = None
    #: Silently skip every fsync (the classic lying-disk failure mode).
    drop_fsync: bool = False
    #: Fail the N-th ``os.replace`` with :class:`InjectedFault` (not a crash:
    #: the writer sees the error and runs its normal cleanup).
    fail_replace: int | None = None
    #: Flip one bit in the data returned by the N-th counted file read.
    flip_read: int | None = None
    #: Byte offset of the flip; ``None`` derives one from ``seed`` and size.
    flip_offset: int | None = None
    #: Serve-worker fault: ``"kill"`` (``os._exit``) is the only kind.
    worker_fault: str | None = None
    #: Dispatch attempt (0-based, per ``WorkerPlane``) the worker fault attaches to.
    worker_fault_task: int = 0
    #: Re-arm the worker fault after every claim (drives serving's
    #: sibling-retry exhaustion); default is one-shot.
    worker_fault_repeat: bool = False
    #: Operation-boundary counts observed so far (also the observer output).
    counters: dict = field(default_factory=dict)

    def note(self, op: str) -> int:
        """Count one operation boundary; returns the new 1-based count."""
        count = self.counters.get(op, 0) + 1
        self.counters[op] = count
        return count


_PLAN: FaultPlan | None = None
_ENV_CHECKED = False

_SPEC_FIELDS = {
    "seed": int,
    "crash_write": int,
    "torn": float,
    "crash_fsync": int,
    "drop_fsync": int,
    "fail_replace": int,
    "flip_read": int,
    "flip_offset": int,
    "worker": str,
    "worker_task": int,
    "worker_repeat": int,
}

_SPEC_TO_ATTR = {
    "torn": "torn_fraction",
    "drop_fsync": "drop_fsync",
    "worker": "worker_fault",
    "worker_task": "worker_fault_task",
    "worker_repeat": "worker_fault_repeat",
}


def plan_from_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Example: ``"crash_write=3,torn=0.25"`` or ``"worker=kill,worker_task=1"``.
    Unknown keys raise so a typo never silently disables a chaos run.
    """
    plan = FaultPlan()
    for token in spec.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise InjectedFault(f"malformed REPRO_FAULTS token {token!r} (expected key=value)")
        key, _, raw = token.partition("=")
        key = key.strip()
        if key not in _SPEC_FIELDS:
            raise InjectedFault(
                f"unknown REPRO_FAULTS key {key!r}; known keys: {sorted(_SPEC_FIELDS)}"
            )
        value = _SPEC_FIELDS[key](raw.strip())
        attr = _SPEC_TO_ATTR.get(key, key)
        if attr in ("drop_fsync", "worker_fault_repeat"):
            value = bool(value)
        setattr(plan, attr, value)
    if plan.worker_fault is not None and plan.worker_fault != "kill":
        raise InjectedFault(f"unknown worker fault {plan.worker_fault!r}; use kill")
    return plan


def active() -> FaultPlan | None:
    """The currently active plan (context-injected, else ``REPRO_FAULTS``)."""
    global _ENV_CHECKED, _PLAN
    if _PLAN is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec = os.environ.get("REPRO_FAULTS")
        if spec:
            _PLAN = plan_from_spec(spec)
    return _PLAN


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` for the duration of the block (plans may nest)."""
    global _PLAN, _ENV_CHECKED
    previous, previous_checked = _PLAN, _ENV_CHECKED
    _PLAN, _ENV_CHECKED = plan, True
    try:
        yield plan
    finally:
        _PLAN, _ENV_CHECKED = previous, previous_checked


# ------------------------------------------------------------------ VFS hooks
class _FaultyWriter:
    """File-handle proxy that counts writes and tears the fated one.

    Zero-length writes (alignment padding can be empty) are passed through
    uncounted so crash-point indices name boundaries where bytes actually
    move.
    """

    def __init__(self, handle, plan: FaultPlan) -> None:
        self._handle = handle
        self._plan = plan

    def write(self, data) -> int:
        view = memoryview(data)
        if len(view) == 0:
            return self._handle.write(data)
        plan = self._plan
        count = plan.note("write")
        if plan.crash_write == count:
            kept = int(len(view) * plan.torn_fraction)
            self._handle.write(view[:kept])
            self._handle.flush()
            raise InjectedCrash(
                f"injected crash at write boundary {count} "
                f"({kept}/{len(view)} bytes of the torn write landed)"
            )
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def open_for_write(path: str, mode: str = "wb"):
    """``open`` for durable writes; wraps the handle when a plan is active."""
    handle = open(path, mode)
    plan = active()
    return handle if plan is None else _FaultyWriter(handle, plan)


def fsync_handle(handle) -> None:
    """Flush + ``os.fsync`` one file handle, honouring fsync faults."""
    plan = active()
    if plan is not None:
        count = plan.note("fsync")
        if plan.crash_fsync == count:
            raise InjectedCrash(f"injected crash at fsync boundary {count}")
        if plan.drop_fsync:
            handle.flush()  # the data reaches the page cache, never the disk
            return
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: str) -> None:
    """Best-effort directory fsync (persists the rename itself)."""
    plan = active()
    if plan is not None:
        plan.note("fsync_dir")
        if plan.drop_fsync:
            return
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir-fsync
        pass
    finally:
        os.close(fd)


def replace(src: str, dst: str) -> None:
    """``os.replace`` with an injectable failure at the publish boundary."""
    plan = active()
    if plan is not None:
        count = plan.note("replace")
        if plan.fail_replace == count:
            raise InjectedFault(
                f"injected os.replace failure at boundary {count} "
                f"({os.path.basename(src)} -> {os.path.basename(dst)})"
            )
    os.replace(src, dst)


def reads_are_faulty() -> bool:
    """Whether the active plan corrupts reads (readers then avoid mmap)."""
    plan = active()
    return plan is not None and plan.flip_read is not None


def read_bytes(path: str) -> bytes:
    """Read a whole file, flipping one seeded bit when the plan says so."""
    with open(path, "rb") as handle:
        data = handle.read()
    plan = active()
    if plan is None or plan.flip_read is None:
        return data
    count = plan.note("read")
    if count != plan.flip_read or not data:
        return data
    offset = plan.flip_offset
    if offset is None:
        # Fixed LCG step over the seed — deterministic, spread over the file.
        offset = (plan.seed * 6364136223846793005 + 1442695040888963407) % len(data)
    mutated = bytearray(data)
    mutated[offset % len(data)] ^= 1 << (plan.seed % 8)
    return bytes(mutated)


# -------------------------------------------------------------- serve workers
def claim_worker_fault(task_index: int) -> dict | None:
    """Claim the plan's worker fault for one dispatched task (parent side).

    Returns the picklable fault spec to ship with the task, or ``None``.
    One-shot by default: the claim is recorded parent-side (the faulted
    worker dies, so worker-side state could never make it one-shot).
    """
    plan = active()
    if plan is None or plan.worker_fault is None:
        return None
    if task_index != plan.worker_fault_task:
        return None
    if not plan.worker_fault_repeat and plan.counters.get("worker_fault_claimed"):
        return None
    plan.counters["worker_fault_claimed"] = plan.counters.get("worker_fault_claimed", 0) + 1
    return {"kind": plan.worker_fault}


def execute_worker_fault(spec: dict) -> None:
    """Run a claimed worker fault inside the serve worker."""
    if spec["kind"] == "kill":
        os._exit(86)  # simulate SIGKILL: no cleanup, no exception, just gone
    raise InjectedFault(f"unknown worker fault kind {spec['kind']!r}")
