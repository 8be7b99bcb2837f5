"""Serving-plane metrics: counters, batch-size histogram, latency quantiles.

Plain counters — the ``/metrics`` endpoint serializes :meth:`ServeMetrics.snapshot` straight to
JSON, no exposition format. Latencies keep a bounded ring of recent samples
(default 4096) so p50/p99 reflect current behaviour and memory stays flat
under sustained load; quantiles use the nearest-rank method on a sorted copy
taken at snapshot time.
"""

from __future__ import annotations

from collections import deque


class LatencyRing:
    """Bounded ring of latency samples with nearest-rank percentiles."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: deque[float] = deque(maxlen=maxlen)
        self.count = 0  # lifetime observations, not just the retained window

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1

    def percentile(self, fraction: float) -> float | None:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
        return ordered[rank]

    def as_dict(self) -> dict:
        p50, p99 = self.percentile(0.50), self.percentile(0.99)
        return {
            "count": self.count,
            "p50_ms": None if p50 is None else round(p50 * 1e3, 3),
            "p99_ms": None if p99 is None else round(p99 * 1e3, 3),
        }


class ServeMetrics:
    """All serving counters in one place; every field lands in ``/metrics``.

    Single-threaded by design: the event loop is the only writer (workers
    report through their reply frames), so plain ints need no locking.
    """

    def __init__(self) -> None:
        self.requests_total = 0
        self.requests_by_route: dict[str, int] = {}
        self.responses_by_status: dict[str, int] = {}
        self.rejected_queue_full = 0
        self.rejected_deadline = 0
        #: Coalescer: batches dispatched, requests that rode in them, and the
        #: batch-size histogram keyed by text count per dispatched batch.
        self.batches = 0
        self.coalesced_requests = 0
        self.batch_size_hist: dict[str, int] = {}
        #: Worker plane: per-dispatch counts and degradation events.
        self.worker_requests = 0
        self.worker_retries = 0
        self.worker_deaths = 0
        self.worker_restarts = 0
        #: Hot reload: completed snapshot swaps across the whole plane.
        self.reloads = 0
        self.latency = LatencyRing()
        self.query_latency = LatencyRing()

    # ------------------------------------------------------------- recording
    def record_request(self, route: str) -> None:
        self.requests_total += 1
        self.requests_by_route[route] = self.requests_by_route.get(route, 0) + 1

    def record_response(self, status: int, seconds: float, *, route: str | None = None) -> None:
        key = str(status)
        self.responses_by_status[key] = self.responses_by_status.get(key, 0) + 1
        self.latency.observe(seconds)
        if route == "/query":
            self.query_latency.observe(seconds)

    def record_batch(self, num_texts: int, num_requests: int) -> None:
        self.batches += 1
        self.coalesced_requests += num_requests
        key = str(num_texts)
        self.batch_size_hist[key] = self.batch_size_hist.get(key, 0) + 1

    # -------------------------------------------------------------- snapshot
    def snapshot(self, **gauges) -> dict:
        """Plain-JSON metrics document; ``gauges`` adds live values
        (queue depth, in-flight count, worker states) the server owns."""
        return {
            "requests_total": self.requests_total,
            "requests_by_route": dict(self.requests_by_route),
            "responses_by_status": dict(self.responses_by_status),
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "batch_size_hist": dict(self.batch_size_hist),
            "worker_requests": self.worker_requests,
            "worker_retries": self.worker_retries,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "reloads": self.reloads,
            "latency": self.latency.as_dict(),
            "query_latency": self.query_latency.as_dict(),
            **gauges,
        }
