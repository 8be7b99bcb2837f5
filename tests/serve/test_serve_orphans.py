"""A killed server takes its workers with it.

``python -m repro.cli serve SNAP --workers 2`` forks two workers that each
hold one end of a socketpair to the server. When the server dies by
``SIGKILL`` it runs no drain, so the only way a worker learns of it is EOF on
its socket — which never comes if the worker, or a sibling, still holds the
server's end of that socketpair. Worker pids are read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads worker pids from /proc"
)

_SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children(pid: int) -> list[int]:
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                children.append(int(entry))
    return children


def _running(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"  # an unreaped zombie has exited


def test_workers_exit_when_the_server_is_killed(serve_snapshot, http_request):
    env = {**os.environ, "PYTHONPATH": _SRC_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(serve_snapshot),
         "--port", "0", "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    workers: list[int] = []
    try:
        line = proc.stdout.readline()  # blocks until the bind lands
        assert line, f"server died before listening:\n{proc.stderr.read()[-2000:]}"
        port = json.loads(line)["port"]
        status, _, body = asyncio.run(
            asyncio.wait_for(http_request(port, "GET", "/healthz"), timeout=60)
        )
        assert (status, json.loads(body)["workers"]) == (200, 2)
        workers = _children(proc.pid)
        assert len(workers) == 2, workers
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 20
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)], "workers outlived their server"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
