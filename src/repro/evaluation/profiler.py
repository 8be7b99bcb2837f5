"""Runtime and peak-memory profiling of matcher runs (Tables V and VI).

Peak memory is measured with :mod:`tracemalloc`, which tracks Python-level
allocations (including numpy buffers allocated through the Python allocator).
Absolute numbers are therefore not comparable with the paper's RSS-based
gigabyte figures, but the *relative* ordering of methods — which is what the
reproduction targets — is preserved.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class ProfiledRun:
    """Outcome of profiling one callable."""

    value: object
    elapsed_seconds: float
    peak_memory_bytes: int


def profile_call(function: Callable[[], T]) -> ProfiledRun:
    """Run ``function`` once, measuring wall-clock time and peak memory."""
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()
    try:
        value = function()
    finally:
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        if not already_tracing:
            tracemalloc.stop()
    return ProfiledRun(value=value, elapsed_seconds=elapsed, peak_memory_bytes=int(peak))


def format_duration(seconds: float) -> str:
    """Human format matching the paper's tables: ``6.1s`` / ``4.2m`` / ``1.3h``."""
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def format_memory(num_bytes: float) -> str:
    """Human format for memory: ``312.4M`` / ``1.2G``."""
    mb = num_bytes / (1024 * 1024)
    if mb < 1024:
        return f"{mb:.1f}M"
    return f"{mb / 1024:.2f}G"
