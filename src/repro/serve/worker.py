"""Forked worker: one mmap'd :class:`MatchSession` behind a framed socket.

Each worker is a ``fork()`` child holding its own ``MatchSession.load(path,
mmap=True)`` over the *same* snapshot file as its siblings, so the payload
arrays live once in the page cache no matter how many workers serve them.
The loop is deliberately blocking and single-request: the dispatcher owns
concurrency (it holds a per-worker lock), the worker just decodes a frame,
answers it, and writes one reply.

Fault injection rides the frame: a request carrying a ``fault`` spec (claimed
parent-side from :mod:`repro.faults`) is executed *before* the request is
touched — a ``kill`` spec exits the process with status 86 mid-request,
which the dispatcher observes as EOF and retries on a sibling.

State discipline: ``match_table`` mutates the in-memory matcher (it folds
the table in), so after serializing the result the worker reloads its
session from the snapshot path — cheap under mmap — leaving every worker
pristine and identical. Durable folds go through ``snapshot append`` + hot
reload instead.
"""

from __future__ import annotations

import os
import signal
import socket

from .. import faults
from ..data.io import refs_to_json
from ..data.table import Table
from ..exceptions import ReproError, ServeError
from .protocol import recv_frame, send_frame


class _WorkerState:
    """The worker's loaded session plus the bookkeeping ``ping`` reports."""

    __slots__ = ("path", "session", "generation")

    def __init__(self, path: str) -> None:
        self.path = path
        self.session = None
        self.generation = 0
        self._load(path)

    def _load(self, path: str) -> None:
        from ..store.session import MatchSession

        replacement = MatchSession.load(path, mmap=True)
        if self.session is not None:
            self.session.close()
        self.session = replacement
        self.path = path

    def reload(self, path: str) -> None:
        self._load(path)
        self.generation += 1

    def restore(self) -> None:
        """Drop mutated in-memory state; back to exactly the snapshot."""
        self._load(self.path)


def _handle_query(state: _WorkerState, frame: dict) -> dict:
    texts = frame.get("texts")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ServeError("query frame requires 'texts': list[str]")
    k = int(frame.get("k", 1))
    max_distance = frame.get("max_distance")
    if max_distance is not None:
        max_distance = float(max_distance)
    rows = state.session.query_many(texts, k=k, max_distance=max_distance)
    return {
        "ok": True,
        "rows": [
            [[[[ref.source, ref.index] for ref in members], distance] for members, distance in hits]
            for hits in rows
        ],
    }


def _handle_match_table(state: _WorkerState, frame: dict) -> dict:
    spec = frame.get("table")
    if not isinstance(spec, dict):
        raise ServeError("match_table frame requires 'table': object")
    try:
        table = Table(spec["name"], tuple(spec["schema"]), [tuple(row) for row in spec["rows"]])
    except (KeyError, TypeError) as exc:
        raise ServeError(f"malformed table spec: {exc}") from exc
    try:
        result = state.session.matcher.add_table(table)
        return {
            "ok": True,
            "tuples": sorted(refs_to_json(result.tuples)),
            "num_tuples": len(result.tuples),
            "sources": list(state.session.known_sources),
        }
    finally:
        # add_table mutated the matcher; reload so this worker stays
        # byte-identical to its siblings for subsequent queries.
        state.restore()


def _handle_ping(state: _WorkerState, frame: dict) -> dict:
    session = state.session
    return {
        "ok": True,
        "pid": os.getpid(),
        "generation": state.generation,
        "path": state.path,
        "sources": list(session.known_sources),
        "items": len(session.matcher.integrated_table),
        "payload_digest": session.digests.get("payload"),
    }


def _handle_reload(state: _WorkerState, frame: dict) -> dict:
    path = frame.get("path")
    if not isinstance(path, str):
        raise ServeError("reload frame requires 'path': str")
    state.reload(path)
    return _handle_ping(state, frame)


_HANDLERS = {
    "query": _handle_query,
    "match_table": _handle_match_table,
    "ping": _handle_ping,
    "reload": _handle_reload,
}


def worker_main(
    snapshot_path: str, sock: socket.socket, worker_id: int, inherited_fds: list[int]
) -> None:
    """Serve frames off ``sock`` until EOF or a ``shutdown`` frame.

    Runs as the body of a forked process. It first closes ``inherited_fds``,
    the dispatcher's ends of its own and its siblings' socketpairs, so that
    the parent's end of ``sock`` has no holder but the parent: when the
    parent dies, even by ``SIGKILL``, this worker reads EOF and exits. Signal
    dispositions are reset to defaults so the parent's asyncio signal
    handlers don't leak in, and the parent initiates drain by closing its end
    (EOF here) or sending ``shutdown``.
    """
    for fd in inherited_fds:
        os.close(fd)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent drives shutdown, not ^C
    state = _WorkerState(snapshot_path)
    try:
        while True:
            frame = recv_frame(sock)
            if frame is None:
                break
            fault = frame.pop("fault", None)
            if fault:
                faults.execute_worker_fault(fault)
            op = frame.get("op")
            if op == "shutdown":
                send_frame(sock, {"ok": True, "op": "shutdown"})
                break
            handler = _HANDLERS.get(op)
            try:
                if handler is None:
                    raise ServeError(f"unknown frame op {op!r}")
                reply = handler(state, frame)
            except Exception as exc:  # any handler failure answers; the worker serves on
                kind = type(exc).__name__
                error = str(exc) if isinstance(exc, ReproError) else f"{kind}: {exc}"
                reply = {"ok": False, "error": error, "kind": kind}
            reply["worker"] = worker_id
            send_frame(sock, reply)
    except (BrokenPipeError, ConnectionResetError):
        pass  # dispatcher went away; nothing left to serve
    finally:
        state.session.close()
        sock.close()
