"""The worker plane: forked workers, round-robin dispatch, sibling retry.

The dispatcher owns one :class:`_Worker` per process: a ``socketpair`` whose
parent end is wrapped in asyncio streams and whose child end is handed to
:func:`repro.serve.worker.worker_main` right after ``fork()``. The parent
closes each child end immediately after forking, which is the load-bearing
move for failure detection: no sibling inherits it, so a dead worker's end
has no other holder and the parent observes a clean EOF the instant the
process exits. The same holds the other way round: a child inherits the
parent ends open at fork time (its own and its live siblings') and closes
them first thing, so when the parent dies — even by ``SIGKILL`` — every
worker reads EOF and exits instead of outliving it.

Dispatch is round-robin over healthy workers with a per-worker lock (one
in-flight frame per worker), idle first: a frame goes to the first worker in
rotation order whose lock is free, else to the rotation head, so it never
queues behind a busy worker while a sibling idles. A dispatch that hits
EOF or a connection error marks the worker dead, schedules a respawn, and
retries the frame on a sibling — bounded at ``num_workers + 1`` attempts so
a frame that kills every worker it touches cannot retry forever. Fault
injection: every dispatch attempt asks
:func:`repro.faults.claim_worker_fault` whether this one should carry a
fault spec.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket

from .. import faults
from ..exceptions import ServeError
from .protocol import read_frame, write_frame
from .worker import worker_main

_FORK = multiprocessing.get_context("fork")


class _Worker:
    """One forked worker process plus the parent's framed pipe to it."""

    __slots__ = ("worker_id", "process", "parent_end", "reader", "writer", "lock", "alive")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.parent_end = None
        self.reader = None
        self.writer = None
        self.lock = asyncio.Lock()
        self.alive = False

    async def spawn(self, snapshot_path: str, plane: "list[_Worker]") -> None:
        """Fork this worker; ``plane`` is every worker of the plane, this one included."""
        self.parent_end, child_end = socket.socketpair()
        # The parent ends open at this fork, which the child closes first thing.
        inherited = [w.parent_end.fileno() for w in plane if w.parent_end is not None]
        self.process = _FORK.Process(
            target=worker_main,
            args=(snapshot_path, child_end, self.worker_id, [fd for fd in inherited if fd >= 0]),
            name=f"repro-serve-worker-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        # Close the child end in the parent *now*: workers forked later must
        # not inherit it, or this worker's death would never read as EOF.
        child_end.close()
        self.reader, self.writer = await asyncio.open_unix_connection(sock=self.parent_end)
        self.alive = True

    def mark_dead(self) -> None:
        self.alive = False
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        self.reader = None
        self.parent_end = None

    async def request(self, frame: dict) -> dict:
        """One frame round-trip; raises ``ServeError`` if the worker dies."""
        async with self.lock:
            if not self.alive:
                raise ServeError(f"worker {self.worker_id} is not alive")
            try:
                await write_frame(self.writer, frame)
                reply = await read_frame(self.reader)
            except (ConnectionError, ServeError, OSError) as exc:
                self.mark_dead()
                raise ServeError(f"worker {self.worker_id} died mid-request: {exc}") from exc
            if reply is None:
                self.mark_dead()
                raise ServeError(f"worker {self.worker_id} died mid-request (EOF)")
            return reply


class WorkerPlane:
    """N forked workers over one snapshot, with retry and respawn.

    Args:
        snapshot_path: snapshot file every worker ``mmap``'s.
        num_workers: plane size; dispatch is round-robin across the
            currently-healthy subset, idle workers first.
        metrics: optional :class:`~repro.serve.metrics.ServeMetrics` for
            dispatch counters (requests, retries, deaths, restarts).
        respawn: replace dead workers automatically (the fault test turns
            this off to observe the degraded state).
    """

    def __init__(self, snapshot_path: str, num_workers: int, *, metrics=None, respawn=True):
        if num_workers < 1:
            raise ServeError(f"worker plane needs >= 1 worker, got {num_workers}")
        self.snapshot_path = str(snapshot_path)
        self.workers = [_Worker(i) for i in range(num_workers)]
        self.metrics = metrics
        self.respawn = respawn
        self.dispatch_count = 0
        self._respawn_tasks: set[asyncio.Task] = set()
        self._closing = False

    async def start(self) -> None:
        for worker in self.workers:
            await worker.spawn(self.snapshot_path, self.workers)

    # ------------------------------------------------------------- dispatch
    def _rotation(self) -> list[_Worker]:
        start = self.dispatch_count % len(self.workers)
        return self.workers[start:] + self.workers[:start]

    async def request(self, frame: dict) -> dict:
        """Round-robin one frame, idle workers first, retrying siblings if one dies."""
        last_error: Exception | None = None
        attempts = 0
        for _ in range(len(self.workers) + 1):
            candidates = [w for w in self._rotation() if w.alive]
            if not candidates:
                break
            worker = next((w for w in candidates if not w.lock.locked()), candidates[0])
            self.dispatch_count += 1
            attempts += 1
            fault = faults.claim_worker_fault(self.dispatch_count - 1)
            attempt_frame = dict(frame, fault=fault) if fault else frame
            if self.metrics is not None:
                self.metrics.worker_requests += 1
                if attempts > 1:
                    self.metrics.worker_retries += 1
            try:
                return await worker.request(attempt_frame)
            except ServeError as exc:
                last_error = exc
                self._on_death(worker)
        raise ServeError(
            f"no healthy worker could answer the frame after {attempts} attempts"
        ) from last_error

    def _on_death(self, worker: _Worker) -> None:
        if self.metrics is not None:
            self.metrics.worker_deaths += 1
        if self.respawn and not self._closing:
            task = asyncio.ensure_future(self._respawn(worker))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, worker: _Worker) -> None:
        async with worker.lock:
            if worker.alive or self._closing:
                return
            if worker.process is not None:
                worker.process.join(timeout=5)
            await worker.spawn(self.snapshot_path, self.workers)
        if self.metrics is not None:
            self.metrics.worker_restarts += 1

    # ------------------------------------------------------------ broadcast
    async def broadcast(self, frame: dict) -> list[dict]:
        """Send ``frame`` to every healthy worker under its dispatch lock.

        Used for ``reload``: holding each worker's lock means the swap lands
        *between* that worker's batches, so no response is ever computed
        half-old, half-new. Raises if any worker fails, after trying all.
        """
        replies = []
        errors = []
        for worker in self.workers:
            if not worker.alive:
                continue
            try:
                replies.append(await worker.request(dict(frame)))
            except ServeError as exc:
                errors.append(exc)
                self._on_death(worker)
        if errors:
            raise ServeError(f"broadcast failed on {len(errors)} worker(s): {errors[0]}")
        return replies

    # ------------------------------------------------------------- plumbing
    @property
    def healthy(self) -> int:
        return sum(1 for worker in self.workers if worker.alive)

    @property
    def degraded(self) -> int:
        return len(self.workers) - self.healthy

    async def close(self) -> None:
        """Drain: shutdown frames to the living, then reap every process."""
        self._closing = True
        for task in list(self._respawn_tasks):
            task.cancel()
        for worker in self.workers:
            if worker.alive:
                try:
                    await worker.request({"op": "shutdown"})
                except ServeError:
                    pass
            worker.mark_dead()
        for worker in self.workers:
            if worker.process is not None:
                worker.process.join(timeout=5)
                if worker.process.is_alive():  # pragma: no cover - last resort
                    worker.process.terminate()
                    worker.process.join(timeout=5)
