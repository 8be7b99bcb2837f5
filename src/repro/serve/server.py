"""The asyncio front door: accept loop, routes, admission, hot reload, drain.

One process runs the event loop; all matching happens in the forked worker
plane. A request's life: the connection handler parses HTTP
(:mod:`repro.serve.http`), admission control either takes it in-flight or
answers an immediate 503 with ``Retry-After``, ``/query`` bodies enter the
coalescer (one batch in flight per worker; requests queued behind busy workers
fold into one batched frame) under an ``asyncio.wait_for`` deadline that turns
into a 504, and the response is serialized once through
:func:`repro.serve.protocol.canonical_json`.

Hot reload: a watcher polls the snapshot path's ``(mtime_ns, size, inode)``
signature — a publisher landing a new snapshot with ``os.replace`` flips all
three atomically — and on change broadcasts a ``reload`` frame to every
worker under its dispatch lock, so the swap lands between batches and no
response is ever computed from torn state. The signature only advances when
every worker confirms, so a failed reload retries on the next poll.

The served path may also be a **chain directory**: a directory of snapshot
files where an incremental publisher appends delta segments
(``snapshot append``). The server resolves the deepest loadable chain tip at
startup, and the watcher re-resolves whenever the directory's own signature
moves — a freshly appended delta becomes the new tip and hot-reloads every
worker (``MatchSession.load`` resolves the chain ancestry on the worker
side), so serving follows the chain without restarts.

Shutdown (SIGTERM/SIGINT) is a drain, not an abort: stop accepting, let
in-flight requests finish (bounded), then walk the worker plane down with
``shutdown`` frames.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import sys
import time
from dataclasses import dataclass

from ..exceptions import ConfigurationError, ReproError, ServeError
from .coalescer import QueryCoalescer
from .dispatch import WorkerPlane
from .http import HTTPError, Request, read_request, response_bytes
from .metrics import ServeMetrics
from .protocol import canonical_json


@dataclass
class ServeConfig:
    """Everything ``python -m repro.cli serve`` can turn."""

    snapshot_path: str
    host: str = "127.0.0.1"
    port: int = 8600  #: 0 asks the OS for an ephemeral port (tests use this).
    workers: int = 2
    max_batch: int = 32  #: 1 turns coalescing off: every request dispatches alone.
    max_inflight: int = 256
    deadline_ms: float = 30_000.0
    reload_poll_s: float = 1.0  #: 0 disables hot reload.
    drain_timeout_s: float = 10.0

    def validate(self) -> None:
        for name in ("workers", "max_batch", "max_inflight"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        for name in ("deadline_ms", "drain_timeout_s"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ConfigurationError(f"{name} must be a positive finite number")
        if not self.reload_poll_s >= 0:  # also rejects NaN
            raise ConfigurationError("reload_poll_s must be a non-negative number")


def _snapshot_signature(path: str) -> tuple | None:
    """The watcher's change detector; ``os.replace`` flips all three fields."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


def _resolve_chain_tip(directory: str) -> str | None:
    """The deepest loadable snapshot in a chain directory (ties break by name).

    Reads manifests only (:func:`repro.store.fsck.read_store`, which skips
    quarantine subdirectories, markers, partials and dotfiles, and lists an
    unreadable file with its error) and returns the deepest tip — the file a
    :class:`~repro.store.format.SnapshotChain` open would fold the most
    state from. Returns ``None`` when the directory holds no snapshot yet.
    """
    from ..store.fsck import read_store

    members = read_store(directory)
    tips = [(member.depth, name) for name, member in members.items() if member.error is None]
    return os.path.join(directory, max(tips)[1]) if tips else None


class MatchServer:
    """The serving plane, assembled: plane + coalescer + HTTP front end."""

    def __init__(self, config: ServeConfig, *, metrics: ServeMetrics | None = None):
        config.validate()
        self.config = config
        self.metrics = metrics or ServeMetrics()
        self._chain_dir = (
            config.snapshot_path if os.path.isdir(config.snapshot_path) else None
        )
        if self._chain_dir is not None:
            tip = _resolve_chain_tip(self._chain_dir)
            if tip is None:
                raise ServeError(
                    f"chain directory {self._chain_dir!r} holds no loadable snapshot"
                )
            self._snapshot_path = tip
        else:
            self._snapshot_path = config.snapshot_path
        self.plane = WorkerPlane(
            self._snapshot_path, config.workers, metrics=self.metrics
        )
        self.coalescer = QueryCoalescer(
            self._query_runner,
            max_batch=config.max_batch,
            slots=config.workers,
            metrics=self.metrics,
        )
        self._server: asyncio.AbstractServer | None = None
        self._watcher: asyncio.Task | None = None
        self._signature = None
        self._dir_signature = None
        self._inflight = 0
        self._drained = asyncio.Event()
        self._shutdown = asyncio.Event()
        self.port: int | None = None  # resolved after bind (ephemeral-port runs)

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        await self.plane.start()
        self._signature = _snapshot_signature(self._snapshot_path)
        if self._chain_dir is not None:
            self._dir_signature = _snapshot_signature(self._chain_dir)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.reload_poll_s > 0:
            self._watcher = asyncio.ensure_future(self._watch_snapshot())
        print(
            json.dumps(
                {
                    "event": "listening",
                    "host": self.config.host,
                    "port": self.port,
                    "workers": self.config.workers,
                    "snapshot": self._snapshot_path,
                }
            ),
            flush=True,
        )

    async def run_forever(self) -> None:
        """CLI entrypoint body: start, serve until a signal, drain, stop."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._shutdown.set)
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            await self.stop()

    async def stop(self) -> None:
        """Drain and dismantle; safe to call once from any exit path."""
        self._shutdown.set()
        if self._watcher is not None:
            self._watcher.cancel()
            self._watcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._inflight:
            self._drained.clear()
            try:
                await asyncio.wait_for(self._drained.wait(), self.config.drain_timeout_s)
            except asyncio.TimeoutError:  # pragma: no cover - drain overrun
                pass
        await self.plane.close()

    # --------------------------------------------------------------- plumbing
    async def _query_runner(self, texts, k, max_distance):
        frame = {"op": "query", "texts": list(texts), "k": int(k)}
        if max_distance is not None:
            frame["max_distance"] = float(max_distance)
        reply = await self.plane.request(frame)
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "worker refused the query"))
        return reply["rows"]

    async def _watch_snapshot(self) -> None:
        while True:
            await asyncio.sleep(self.config.reload_poll_s)
            if self._chain_dir is not None:
                # Chain-directory mode: re-resolve the deepest tip, but only
                # when the directory itself moved (an append creates a file,
                # flipping the directory's own mtime), so idle polls never
                # parse manifests.
                dir_signature = _snapshot_signature(self._chain_dir)
                if dir_signature == self._dir_signature:
                    continue
                target = _resolve_chain_tip(self._chain_dir)
                if target is None:
                    continue
            else:
                dir_signature = None
                target = self._snapshot_path
            signature = _snapshot_signature(target)
            if signature is None:
                continue
            if target == self._snapshot_path and signature == self._signature:
                # Directory churn without a new tip (marker files, sweeps):
                # advance the directory signature so we stop rescanning.
                self._dir_signature = dir_signature
                continue
            try:
                await self.plane.broadcast({"op": "reload", "path": target})
            except ServeError:
                continue  # a worker died mid-reload; retry next poll
            self._snapshot_path = target
            self._signature = signature
            self._dir_signature = dir_signature
            self.metrics.reloads += 1

    # ----------------------------------------------------------------- routes
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HTTPError as exc:
                    writer.write(
                        response_bytes(
                            exc.status,
                            canonical_json({"error": exc.detail}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = time.perf_counter()
                status, body, extra = await self._route(request)
                self.metrics.record_response(
                    status, time.perf_counter() - started, route=request.path
                )
                keep_alive = request.keep_alive and not self._shutdown.is_set()
                writer.write(
                    response_bytes(status, body, keep_alive=keep_alive, extra_headers=extra)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer raced us
                pass

    async def _route(self, request: Request) -> tuple[int, bytes, dict | None]:
        self.metrics.record_request(request.path)
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return await self._healthz()
        if route == ("GET", "/metrics"):
            return 200, canonical_json(self._metrics_document()), None
        if route in (("POST", "/query"), ("POST", "/match-table")):
            return await self._admitted(request)
        if request.path in ("/healthz", "/metrics", "/query", "/match-table"):
            return 405, canonical_json({"error": f"wrong method for {request.path}"}), None
        return 404, canonical_json({"error": f"no route for {request.path}"}), None

    async def _healthz(self) -> tuple[int, bytes, dict | None]:
        try:
            reply = await self.plane.request({"op": "ping"})
        except ServeError as exc:
            return 503, canonical_json({"status": "unhealthy", "error": str(exc)}), None
        body = {
            "status": "ok",
            "workers": self.plane.healthy,
            "degraded_workers": self.plane.degraded,
            "generation": reply.get("generation"),
            "sources": reply.get("sources"),
            "items": reply.get("items"),
            "payload_digest": reply.get("payload_digest"),
        }
        return 200, canonical_json(body), None

    def _metrics_document(self) -> dict:
        return self.metrics.snapshot(
            inflight=self._inflight,
            max_inflight=self.config.max_inflight,
            queue_depth=self.coalescer.pending_texts,
            workers_healthy=self.plane.healthy,
            workers_degraded=self.plane.degraded,
            coalesce_enabled=self.coalescer.enabled,
            snapshot_path=self._snapshot_path,
        )

    async def _admitted(self, request: Request) -> tuple[int, bytes, dict | None]:
        """Admission control wrapper: bounded in-flight, fast 503 past it."""
        if self._inflight >= self.config.max_inflight:
            self.metrics.rejected_queue_full += 1
            body = canonical_json({"error": "server is at capacity, retry shortly"})
            return 503, body, {"Retry-After": "1"}
        self._inflight += 1
        try:
            handler = self._query if request.path == "/query" else self._match_table
            return await asyncio.wait_for(
                handler(request), self.config.deadline_ms / 1e3
            )
        except asyncio.TimeoutError:
            self.metrics.rejected_deadline += 1
            return 504, canonical_json({"error": "deadline exceeded"}), None
        except HTTPError as exc:
            return exc.status, canonical_json({"error": exc.detail}), None
        except ReproError as exc:
            return 500, canonical_json({"error": str(exc)}), None
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()

    @staticmethod
    def _json_body(request: Request) -> dict:
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HTTPError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise HTTPError(400, "body must be a JSON object")
        return body

    async def _query(self, request: Request) -> tuple[int, bytes, dict | None]:
        body = self._json_body(request)
        texts = body.get("texts")
        if not isinstance(texts, list) or not texts or not all(
            isinstance(t, str) for t in texts
        ):
            raise HTTPError(400, "'texts' must be a non-empty list of strings")
        k = body.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise HTTPError(400, "'k' must be a positive integer")
        max_distance = body.get("max_distance")
        if max_distance is not None and (
            isinstance(max_distance, bool)
            or not isinstance(max_distance, (int, float))
            or math.isnan(max_distance)  # json.loads accepts NaN; it would disable the cutoff
        ):
            raise HTTPError(400, "'max_distance' must be a number, not NaN")
        rows = await self.coalescer.submit(texts, k=k, max_distance=max_distance)
        return 200, canonical_json({"rows": rows}), None

    async def _match_table(self, request: Request) -> tuple[int, bytes, dict | None]:
        body = self._json_body(request)
        if not isinstance(body.get("table"), dict):
            raise HTTPError(400, "'table' must be an object with name/schema/rows")
        reply = await self.plane.request({"op": "match_table", "table": body["table"]})
        if not reply.get("ok"):
            raise HTTPError(400, reply.get("error", "worker refused the table"))
        document = {
            "tuples": reply["tuples"],
            "num_tuples": reply["num_tuples"],
            "sources": reply["sources"],
        }
        return 200, canonical_json(document), None


def run(config: ServeConfig) -> None:
    """Blocking entry for the CLI ``serve`` verb."""
    try:
        asyncio.run(MatchServer(config).run_forever())
    except KeyboardInterrupt:  # pragma: no cover - ^C before handlers install
        pass
    print(json.dumps({"event": "stopped"}), file=sys.stderr, flush=True)
