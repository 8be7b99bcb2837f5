"""Parallel execution backend for MultiEM: one persistent thread pool, on by default.

The paper parallelizes two embarrassingly parallel loops (Section III-E):
the merges of one hierarchy level and per-tuple pruning. This module wraps
the choice of serial / thread-pool execution behind two calls so the
pipeline code stays identical in both modes: ``map`` for a flat fan-out
(stage S's shuffles, stage R's tables, pruning chunks) and ``submit`` for the
merge task graph, whose scheduler starts each build, query chunk and union as
soon as its inputs exist (:class:`repro.core.merging._MergeSchedule`).
Threads are the only transport because the heavy work (the GEMM scan and
the native ANN kernel behind ctypes) releases the GIL: workers share the
parent's tables and indexes, so a task is a plain closure and nothing is
copied or pickled. Tasks never submit to the pool themselves (it is
bounded, so a nested ``map`` could deadlock); only the calling thread does.

The pool is created **once per executor lifetime** (lazily, at the first
parallel ``map`` or ``submit``) with :attr:`ParallelExecutor.workers` threads
and reused by every subsequent call. Before its first thread starts, glibc is capped at the
main malloc arena: per-thread arenas each keep their own freed numpy buffers,
which measured +10-19 % peak RSS for the same work (ROADMAP, pool runbook).
Release it with :meth:`ParallelExecutor.close` or a ``with`` block (reuse lazily
re-creates it); functions that make their own executor do (:func:`default_executor`).
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from ..config import ParallelConfig
from ..exceptions import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


class ParallelExecutor:
    """Map a function over items serially or via a persistent thread pool."""

    def __init__(self, config: ParallelConfig | None = None) -> None:
        self.config = config or ParallelConfig()
        self.config.validate()
        self._pool: ThreadPoolExecutor | None = None  # persistent, lazily created

    @property
    def is_parallel(self) -> bool:
        """Whether calls will actually fan out to the thread pool."""
        return self.config.enabled

    @property
    def workers(self) -> int:
        """Tasks that run at once: 1 when serial, else ``max_workers`` or the usable CPUs."""
        if not self.is_parallel:
            return 1
        if self.config.max_workers is not None:
            return self.config.max_workers
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            return os.cpu_count() or 1

    # ------------------------------------------------------------- pools
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            try:  # keep worker threads on the main malloc arena (module docstring)
                mallopt = ctypes.CDLL(None).mallopt
                mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
                mallopt(-8, 1)  # M_ARENA_MAX
            except (OSError, AttributeError):  # no dlopen(NULL) / libc without mallopt
                pass
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (idempotent; lazily re-created on reuse)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        try:
            self.close()
        except (RuntimeError, AttributeError, TypeError):
            # join() of the collecting thread itself, or module globals
            # already torn down at interpreter exit: nothing left to release.
            pass

    # --------------------------------------------------------------- map
    def map(self, function: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``function`` to every item, preserving input order.

        Runs inline when serial or for empty / single-item input, where a pool
        would only add overhead (the paper observes the same effect on the
        small Geo dataset). Otherwise every task is waited on; the first
        exception in input order propagates, and tasks not yet started are
        cancelled. The executor stays usable afterwards.
        """
        if not self.is_parallel or len(items) <= 1:
            return [function(item) for item in items]
        return list(self._ensure_pool().map(function, items))

    def submit(self, function: Callable[[], R]) -> "Future[R]":
        """Start ``function()`` on the pool; when serial, run it now into a finished future.

        The primitive behind the merge scheduler, which submits tasks as
        their inputs appear and waits on the futures from the calling thread.
        A task's exception is kept in its future, as the pool keeps it.
        """
        if self.is_parallel:
            return self._ensure_pool().submit(function)
        future: Future[R] = Future()
        try:
            future.set_result(function())
        except Exception as error:
            future.set_exception(error)
        return future


def default_executor(function: Callable[..., R]) -> Callable[..., R]:
    """Run ``function(..., executor=None)`` on a default executor closed when it returns.

    A caller's executor is passed through and never closed; one made here
    never outlives the call, so no path leaves pool threads to ``__del__``.
    """

    @functools.wraps(function)
    def wrapper(*args, executor: ParallelExecutor | None = None, **kwargs) -> R:
        if executor is not None:
            return function(*args, executor=executor, **kwargs)
        with ParallelExecutor() as own:
            return function(*args, executor=own, **kwargs)

    return wrapper


def partition(items: Sequence[T], num_parts: int) -> list[list[T]]:
    """Split items into at most ``num_parts`` contiguous, balanced chunks.

    Used to batch per-tuple pruning work so each worker gets a meaningful
    chunk instead of one tiny task.
    """
    if num_parts < 1:
        raise ConfigurationError("num_parts must be >= 1")
    items = list(items)
    if not items:
        return []
    num_parts = min(num_parts, len(items))
    size, remainder = divmod(len(items), num_parts)
    chunks: list[list[T]] = []
    start = 0
    for part in range(num_parts):
        stop = start + size + (1 if part < remainder else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks
