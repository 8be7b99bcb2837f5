"""The serving plane's load generator: server process, closed loop, open loop.

All load comes from this one process over at most two keep-alive connections,
one thread each (``nproc`` is 2 and the server plus its worker need the cores).

* Closed loop: each client sends its next request when the previous reply
  arrived — callers that wait for an answer. A slow server receives less load,
  so the figure to read is completions per second.
* Open loop: requests fall due on a fixed schedule whatever the server does —
  independent users. Latency counts from the due time, so a stall charges the
  requests queued behind it, and the generator's own lateness is reported.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from harness import PINNED_ENV, SRC

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30
STOP_TIMEOUT_S = 30


class Server:
    """``python -m repro.cli serve SNAP --port 0 --workers 1``, always stopped on exit."""

    def __init__(self, snapshot: str) -> None:
        self.snapshot = snapshot
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "Server":
        env = {**os.environ, **PINNED_ENV, "PYTHONPATH": SRC}
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", self.snapshot,
             "--port", "0", "--workers", "1", "--reload-poll-s", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("serve process ended before its `listening` line")
            self.port = int(json.loads(line)["port"])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None

    def pids(self) -> list[int]:
        """The server and the workers it forked."""
        found = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if parent == self.proc.pid:
                found.append(int(entry))
        return found

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its workers; read before shutdown."""
        total_kib = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def metrics(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()


class _Client:
    """One keep-alive connection; a failed request reconnects and counts as failed."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def query(self, text: str, k: int):
        """The decoded reply, or ``None`` for a refused, timed-out or non-200 request."""
        body = json.dumps({"texts": [text], "k": k})
        try:
            self.connection.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
            return None
        return json.loads(payload) if response.status == 200 else None

    def close(self) -> None:
        self.connection.close()


def _drive(port: int, clients: int, texts: list[str], k: int, due_after) -> dict:
    """Send ``texts`` once each from ``clients`` threads; ``due_after(i)`` schedules request i.

    ``due_after`` returning ``None`` means "as soon as a client is free"
    (closed loop); otherwise seconds after the start at which request ``i``
    falls due (open loop), and latency counts from that instant.
    """
    lock = threading.Lock()
    cursor = [0]
    latencies: list[float] = []
    lags: list[float] = []
    replies: dict[int, object] = {}
    origin = time.perf_counter() + 0.05

    def work() -> None:
        client = _Client(port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(texts):
                    return
                offset = due_after(i)
                if offset is None:
                    due = sent = time.perf_counter()
                else:
                    due = origin + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                reply = client.query(texts[i], k)
                done = time.perf_counter()
                if reply is not None:
                    with lock:
                        latencies.append(done - due)
                        lags.append(sent - due)
                        replies[i] = reply
        finally:
            client.close()

    threads = [threading.Thread(target=work) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "wall_s": time.perf_counter() - started,
        "latencies": latencies,
        "lags": lags,
        "replies": replies,
        "attempted": len(texts),
        # a request without a reply (refused, timed out, non-200) has no latency
        "failed": len(texts) - len(latencies),
    }


def closed_loop(port: int, texts: list[str], k: int, clients: int = CONNECTIONS) -> dict:
    return _drive(port, clients, texts, k, lambda i: None)


def open_loop(port: int, texts: list[str], k: int, rate_per_s: float) -> dict:
    return _drive(port, CONNECTIONS, texts, k, lambda i: i / rate_per_s)
