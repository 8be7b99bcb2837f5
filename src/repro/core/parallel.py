"""Parallel execution backend for MultiEM: one persistent thread pool, on by default.

The paper parallelizes two embarrassingly parallel loops (Section III-E):
the merges of one hierarchy level — run as flat build / forward / backward /
finish fan-outs, see :func:`repro.core.merging.hierarchical_merge_tables` —
and per-tuple pruning. This module wraps the choice of serial / thread-pool
execution behind one ``map``-like call so the pipeline code stays identical
in both modes. Threads are the only transport because the heavy work (the
GEMM scan and the native ANN kernel behind ctypes) releases the GIL: workers
share the parent's tables and indexes, so a task is a plain closure and
nothing is copied or pickled. Tasks never submit to the pool themselves (it
is bounded, so a nested ``map`` could deadlock).

The pool is created **once per executor lifetime** (lazily, at the first
parallel ``map``) with :attr:`ParallelExecutor.workers` threads and reused by
every subsequent call. Before its first thread starts, glibc is capped at the
main malloc arena: per-thread arenas each keep their own freed numpy buffers,
which measured +10-19 % peak RSS for the same work (ROADMAP, pool runbook).
Release it with :meth:`ParallelExecutor.close` or a ``with`` block (reuse lazily
re-creates it); functions that make their own executor do (:func:`default_executor`).
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Iterable, Sequence, TypeVar

from ..config import ParallelConfig
from ..exceptions import ConfigurationError

logger = logging.getLogger("repro.parallel")

T = TypeVar("T")
R = TypeVar("R")


class ParallelExecutor:
    """Map a function over items serially or via a persistent thread pool."""

    def __init__(self, config: ParallelConfig | None = None) -> None:
        self.config = config or ParallelConfig()
        self.config.validate()
        self._pool: ThreadPoolExecutor | None = None  # persistent, lazily created
        #: Healing counters, cumulative over the executor's lifetime:
        #: ``pool_restarts`` (pools discarded after a timeout),
        #: ``retries`` (re-dispatch rounds), ``timeouts`` (tasks that
        #: exceeded ``task_timeout``), ``serial_fallbacks`` (maps that
        #: finished degraded, in-parent).
        self.metrics: dict[str, int] = {
            "pool_restarts": 0,
            "retries": 0,
            "timeouts": 0,
            "serial_fallbacks": 0,
        }

    @property
    def is_parallel(self) -> bool:
        """Whether calls will actually fan out to the thread pool."""
        return self.config.enabled and self.config.backend != "serial"

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

        Falls back to serial execution for empty or single-item input, where a
        pool would only add overhead (the paper observes the same effect on
        the small Geo dataset).

        With ``ParallelConfig.self_heal`` (the default), a wedged pool is
        recovered instead of waited on forever — see :meth:`_map_healing`.
        Because every dispatched task is pure (a function of immutable
        arrays), re-running one in a fresh pool or in the parent produces the
        same bytes; healing changes wall-clock, never results.
        """
        if not self.is_parallel or len(items) <= 1:
            return [function(item) for item in items]
        if self.config.self_heal:
            return self._map_healing(function, items)
        return list(self._ensure_pool().map(function, items))

    def _map_healing(self, function: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Dispatch with per-task timeouts, pool restarts, and serial fallback.

        Rounds: submit every still-missing task, collect results in order;
        on a task timeout, harvest whatever finished, abandon the pool, back
        off, and re-dispatch the remainder in a fresh pool — up to
        ``max_retries`` rounds, after which the remainder runs serially in
        the parent. Hung threads cannot be killed; they are leaked (they
        finish eventually) and the executor simply stops routing work to
        their pool. Genuine task exceptions propagate immediately,
        un-retried: retrying a deterministic failure would just fail again,
        and silently swallowing it could mask a real bug.
        """
        config = self.config
        results: dict[int, R] = {}
        pending = list(range(len(items)))
        rounds = 0
        while pending:
            pool = self._ensure_pool()
            failure: FutureTimeoutError | None = None
            try:
                futures = {index: pool.submit(function, items[index]) for index in pending}
                for index in pending:
                    future = futures[index]
                    if failure is None:
                        try:
                            results[index] = future.result(timeout=config.task_timeout)
                        except FutureTimeoutError as exc:
                            self.metrics["timeouts"] += 1
                            failure = exc
                    # Past the first timeout: harvest tasks that did finish
                    # so only genuinely-missing ones are re-dispatched.
                    elif future.done() and not future.cancelled():
                        results[index] = future.result()
            finally:
                if failure is not None:
                    self.metrics["pool_restarts"] += 1
                    self._pool = None
                    pool.shutdown(wait=False, cancel_futures=True)
            pending = [index for index in pending if index not in results]
            if not pending:
                break
            if rounds >= config.max_retries:
                self.metrics["serial_fallbacks"] += 1
                logger.warning(
                    "worker pool failed %d time(s) (%s); degrading %d task(s) to "
                    "serial in-parent execution (results are unaffected)",
                    rounds + 1,
                    failure,
                    len(pending),
                )
                for index in pending:
                    results[index] = function(items[index])
                break
            rounds += 1
            self.metrics["retries"] += 1
            backoff = config.retry_backoff * (2 ** (rounds - 1))
            logger.warning(
                "worker pool failure (%s: %s); restarting pool and retrying "
                "%d task(s) after %.2fs (round %d/%d)",
                type(failure).__name__,
                failure,
                len(pending),
                backoff,
                rounds,
                config.max_retries,
            )
            if backoff > 0:
                time.sleep(backoff)
        return [results[index] for index in range(len(items))]

    def starmap(self, function: Callable[..., R], items: Iterable[tuple]) -> list[R]:
        """Like :meth:`map` but unpacking argument tuples."""
        materialized = list(items)
        return self.map(lambda args: function(*args), materialized)


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
