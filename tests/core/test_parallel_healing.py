"""Self-healing executor: a wedged pool changes wall-clock, never bytes.

The contract under test: with ``ParallelConfig.self_heal`` (the default), a
task that hangs past ``task_timeout`` triggers a fresh pool + bounded
re-dispatch, and — once retries are exhausted — serial in-parent execution
of whatever is missing. Results equal the serial path in every case, because
every dispatched task is pure; the degradation is surfaced through
``ParallelExecutor.metrics`` and the ``repro.parallel`` logger. Genuine task
exceptions still propagate un-retried.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.config import ParallelConfig
from repro.core.parallel import ParallelExecutor

pytestmark = pytest.mark.faults


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError("task 3 is genuinely broken")
    return x


def _heal_config(**overrides) -> ParallelConfig:
    defaults = dict(
        enabled=True,
        backend="thread",
        max_workers=2,
        task_timeout=60.0,
        max_retries=2,
        retry_backoff=0.01,
    )
    defaults.update(overrides)
    return ParallelConfig(**defaults)


class TestHealingUnit:
    def test_hung_worker_times_out_and_heals(self, caplog):
        """Timeout → fresh pool → retry succeeds; nothing degrades to serial."""
        items = list(range(4))
        hung_once = _HangsOnce(item=1, seconds=5.0)
        with ParallelExecutor(_heal_config(task_timeout=0.5)) as ex:
            with caplog.at_level(logging.WARNING, logger="repro.parallel"):
                assert ex.map(hung_once, items) == [x * x for x in items]
            assert ex.metrics["timeouts"] >= 1
            assert ex.metrics["pool_restarts"] >= 1
            assert ex.metrics["retries"] >= 1
            assert ex.metrics["serial_fallbacks"] == 0
            hung_once.release.set()  # let the abandoned thread finish now
        assert any("restarting pool" in r.message for r in caplog.records)

    def test_genuine_task_exception_propagates_unretried(self):
        with ParallelExecutor(_heal_config()) as ex:
            with pytest.raises(ValueError, match="genuinely broken"):
                ex.map(_boom, list(range(6)))
            assert ex.metrics["retries"] == 0
            assert ex.metrics["serial_fallbacks"] == 0
            # The executor stays usable after the failure.
            assert ex.map(_square, [2, 3]) == [4, 9]

    def test_thread_backend_timeout_heals_serially(self):
        # Threads cannot be killed: the wedged pool is abandoned and the
        # missing tasks run in the parent.
        config = _heal_config(task_timeout=0.5, max_retries=0)
        with ParallelExecutor(config) as ex:
            assert ex.map(_sleepy, [0.0, 5.0, 0.0]) == [0.0, 5.0, 0.0]
            assert ex.metrics["timeouts"] >= 1
            assert ex.metrics["serial_fallbacks"] == 1


class _HangsOnce:
    """Squares its input; the first call for ``item`` blocks (a wedged worker)."""

    def __init__(self, item, seconds):
        self.item, self.seconds = item, seconds
        self.release = threading.Event()
        self._hung = False

    def __call__(self, x):
        if x == self.item and not self._hung:
            self._hung = True
            self.release.wait(self.seconds)
        return x * x


def _sleepy(seconds):
    # Sleeps only inside a pool worker thread; the serial fallback re-runs it
    # in the parent, where sleeping the full 5s would slow the suite, so the
    # parent path returns immediately.
    if threading.current_thread() is not threading.main_thread() and seconds:
        time.sleep(seconds)
    return seconds


def test_config_validation_of_healing_knobs():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        ParallelConfig(task_timeout=0.0).validate()
    with pytest.raises(ConfigurationError):
        ParallelConfig(max_retries=-1).validate()
    with pytest.raises(ConfigurationError):
        ParallelConfig(retry_backoff=-0.5).validate()
    ParallelConfig(task_timeout=1.0, max_retries=0, retry_backoff=0.0).validate()
