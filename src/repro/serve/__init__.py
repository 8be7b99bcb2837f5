"""Async match-serving plane over fitted snapshots.

Architecture, front to back::

    client ──HTTP/1.1──▶ accept loop (asyncio, one process)
                           │  admission control: bounded in-flight,
                           │  fast 503 + Retry-After past high-water,
                           │  per-request deadline → 504
                           ▼
                       request coalescer
                           │  one batch in flight per worker; /query calls
                           │  that queue behind busy workers fold into ONE
                           │  batched encode + ONE batched index query
                           │  (per-request slices are byte-identical to
                           │  serial answers)
                           ▼
                       worker plane (N forked processes)
                           │  round-robin over framed unix socketpairs,
                           │  idle workers first, sibling retry + respawn
                           │  on worker death
                           ▼
                       MatchSession.load(snapshot, mmap=True) × N
                              one snapshot file → one page-cache copy

A watcher polls the snapshot path and hot-reloads every worker between
batches when a new snapshot lands via ``os.replace`` — responses are never
computed from torn state. ``/healthz`` and ``/metrics`` expose liveness and
the counters in :class:`~repro.serve.metrics.ServeMetrics` as plain JSON.

Run it: ``python -m repro.cli serve SNAPSHOT --port 8600 --workers 2``;
load-test it: ``python3 bench/run.py --workload serve-query``.
"""

from .coalescer import QueryCoalescer
from .dispatch import WorkerPlane
from .metrics import LatencyRing, ServeMetrics
from .server import MatchServer, ServeConfig, run

__all__ = [
    "LatencyRing",
    "MatchServer",
    "QueryCoalescer",
    "ServeConfig",
    "ServeMetrics",
    "WorkerPlane",
    "run",
]
