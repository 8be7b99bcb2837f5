"""Request coalescing: concurrent queries fold into one batched engine call.

The amortization argument: a single nearest-tuple query spends far more time
in per-request Python dispatch (HTTP parse, config plumbing, encoder setup)
than in the native re-rank itself, so under concurrency the big win is
folding the in-flight requests into **one** batched ``encode_texts`` + one
batched index query and slicing per-request answers back out. That slicing
is only honest because the whole query path is batch-composition-invariant
(:func:`repro.ann.engine.query_rows` /
:meth:`repro.store.session.MatchSession.query_many`): each request's rows
are byte-identical to what a serial one-at-a-time call would have returned —
pinned by ``tests/serve/test_coalescer.py``.

Batching is work-conserving and never waits on a clock: at most ``slots``
batches are in flight (the server passes its worker count). The first
request for a ``(k, max_distance)`` key opens a batch whose flush task takes
a slot; with one free it dispatches on the next loop tick, else the batch
grows until one frees (or it holds ``max_batch`` texts and detaches).
Requests with different ``(k, max_distance)`` parameters never share a
batch — a batched index query has a single ``k``, and distance filtering is
per request.

The coalescer is transport-agnostic: ``runner(texts, k, max_distance)`` is
any awaitable returning one row list per text. The server wires it to the
worker plane; the equivalence tests wire it straight to a
:class:`~repro.store.session.MatchSession`.
"""

from __future__ import annotations

import asyncio


class _Batch:
    __slots__ = ("requests", "num_texts")

    def __init__(self) -> None:
        self.requests: list[tuple[list, asyncio.Future]] = []
        self.num_texts = 0


class QueryCoalescer:
    """Work-conserving batcher over an async ``runner``.

    Args:
        runner: ``await runner(texts, k, max_distance)`` → one row list per
            text, batch-composition-invariant.
        max_batch: detach a batch as soon as it holds this many texts
            (``1`` disables coalescing: every request dispatches alone).
        slots: batches in flight at once; a batch waits for a free slot and
            gathers the requests that arrive meanwhile.
        metrics: optional :class:`~repro.serve.metrics.ServeMetrics`;
            batches and the batch-size histogram are recorded there.
    """

    def __init__(self, runner, *, max_batch: int = 32, slots: int = 1, metrics=None):
        self.runner = runner
        self.max_batch = int(max_batch)
        self.metrics = metrics
        self._slots = asyncio.Semaphore(slots)
        self._pending: dict[tuple, _Batch] = {}
        self._flush_tasks: set[asyncio.Task] = set()

    @property
    def enabled(self) -> bool:
        return self.max_batch > 1

    @property
    def pending_texts(self) -> int:
        """Texts waiting for a slot (the queue-depth gauge)."""
        return sum(batch.num_texts for batch in self._pending.values())

    async def submit(self, texts, k: int = 1, max_distance: float | None = None):
        """Rows for ``texts`` — the same bytes a serial call would produce."""
        texts = list(texts)
        if not self.enabled:
            if self.metrics is not None:
                self.metrics.record_batch(len(texts), 1)
            return await self.runner(texts, k, max_distance)
        key = (int(k), max_distance)
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = _Batch()
            task = asyncio.ensure_future(self._flush(key, batch))
            self._flush_tasks.add(task)
            task.add_done_callback(self._flush_tasks.discard)
        future = asyncio.get_running_loop().create_future()
        batch.requests.append((texts, future))
        batch.num_texts += len(texts)
        if batch.num_texts >= self.max_batch:
            # Detach synchronously so a request landing after the size
            # trigger opens a fresh batch instead of growing a full one.
            del self._pending[key]
        return await future

    async def _flush(self, key: tuple, batch: _Batch) -> None:
        try:
            async with self._slots:
                if self._pending.get(key) is batch:
                    del self._pending[key]
                await self._dispatch(key, batch)
        except asyncio.CancelledError:
            if self._pending.get(key) is batch:
                del self._pending[key]
            for _, future in batch.requests:
                future.cancel()
            raise

    async def _dispatch(self, key: tuple, batch: _Batch) -> None:
        texts = [text for request_texts, _ in batch.requests for text in request_texts]
        if self.metrics is not None:
            self.metrics.record_batch(len(texts), len(batch.requests))
        try:
            rows = await self.runner(texts, key[0], key[1])
            if len(rows) != len(texts):
                raise RuntimeError(
                    f"runner returned {len(rows)} rows for {len(texts)} texts"
                )
        except Exception as exc:  # every waiter must hear a runner failure
            for _, future in batch.requests:
                if not future.done():
                    future.set_exception(exc)
            return
        position = 0
        for request_texts, future in batch.requests:
            count = len(request_texts)
            if not future.done():  # a deadline may have cancelled the waiter
                future.set_result(rows[position : position + count])
            position += count
