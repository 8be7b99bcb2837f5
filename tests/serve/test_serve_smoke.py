"""Tier-1 smoke: boot the real server process, burst it, drain it.

This is the one leg that exercises the CLI entrypoint end to end —
``python -m repro.cli serve`` on an ephemeral port over the music-20 tiny
snapshot — under both ``REPRO_NATIVE`` settings, so a packaging or import
regression in the serve plane fails the plain test run, not just a manual
boot. The burst is eight concurrent identical queries against two workers:
all answers must be byte-identical and ``/metrics`` must show that the ones
queued behind busy workers rode in fewer batches than requests.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

pytestmark = pytest.mark.smoke

_SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


@pytest.mark.parametrize("native", ["0", "1"])
def test_smoke_serve_boot_burst_drain(serve_snapshot, query_texts, http_request, native):
    env = {**os.environ, "REPRO_NATIVE": native}
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(serve_snapshot),
            "--port", "0", "--workers", "2",
            "--reload-poll-s", "0.2",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()  # blocks until the bind lands
        assert line, f"server died before listening:\n{proc.stderr.read()[-2000:]}"
        info = json.loads(line)
        assert info["event"] == "listening"
        port = info["port"]

        async def scenario():
            status, _, body = await http_request(port, "GET", "/healthz")
            health = json.loads(body)
            assert (status, health["status"], health["workers"]) == (200, "ok", 2)

            doc = {"texts": query_texts[:2], "k": 2}
            responses = await asyncio.gather(
                *(http_request(port, "POST", "/query", doc) for _ in range(8))
            )
            bodies = {body for _, _, body in responses}
            assert all(status == 200 for status, _, _ in responses)
            assert len(bodies) == 1, "identical queries answered differently"
            assert json.loads(next(iter(bodies)))["rows"], "burst found no matches"

            status, _, body = await http_request(port, "GET", "/metrics")
            metrics = json.loads(body)
            assert status == 200
            assert metrics["coalesced_requests"] >= 8
            assert metrics["batches"] < 8, "the burst never coalesced"
            assert metrics["workers_healthy"] == 2

        asyncio.run(asyncio.wait_for(scenario(), timeout=60))

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, "SIGTERM drain did not exit cleanly"
        assert json.loads(proc.stderr.read().strip().splitlines()[-1]) == {"event": "stopped"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
