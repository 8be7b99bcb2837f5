"""Coalescer equivalence: batched slices are byte-identical to serial answers.

The runner here is a :class:`MatchSession` directly — no HTTP, no workers —
so these tests pin exactly the property the server relies on: folding
concurrent requests into one batched ``query_many`` and slicing per-request
rows back out changes nothing, bit for bit, including ``max_distance``
filtering and empty-result rows.
"""

from __future__ import annotations

import asyncio

from repro.serve import QueryCoalescer, ServeMetrics
from repro.serve.protocol import canonical_json


def _session_runner(session):
    async def runner(texts, k, max_distance):
        return session.query_many(texts, k=k, max_distance=max_distance)

    return runner


def _gather(coalescer, submissions):
    async def scenario():
        return await asyncio.gather(
            *(coalescer.submit(texts, **kwargs) for texts, kwargs in submissions)
        )

    return asyncio.run(scenario())


class TestEquivalence:
    def test_concurrent_single_text_requests_match_serial(
        self, serve_session, query_texts, rows_to_json
    ):
        serial = [serve_session.query_many([text], k=2) for text in query_texts]
        metrics = ServeMetrics()
        coalescer = QueryCoalescer(
            _session_runner(serve_session), max_batch=64, metrics=metrics
        )
        results = _gather(coalescer, [([text], {"k": 2}) for text in query_texts])
        assert results == serial
        # Byte identity through the one response serializer, not just ==.
        for coalesced, alone in zip(results, serial):
            assert canonical_json(rows_to_json(coalesced)) == canonical_json(rows_to_json(alone))
        # They actually rode together: one batch, not one per request.
        assert metrics.batches == 1
        assert metrics.coalesced_requests == len(query_texts)
        assert metrics.batch_size_hist == {str(len(query_texts)): 1}

    def test_multi_text_requests_slice_back_correctly(self, serve_session, query_texts):
        groups = [query_texts[0:1], query_texts[1:4], query_texts[4:7]]
        serial = [serve_session.query_many(group, k=3) for group in groups]
        coalescer = QueryCoalescer(_session_runner(serve_session), max_batch=64)
        results = _gather(coalescer, [(group, {"k": 3}) for group in groups])
        assert results == serial

    def test_max_distance_filtering_survives_coalescing(self, serve_session, query_texts):
        cutoff = 0.35
        serial = [
            serve_session.query_many([text], k=2, max_distance=cutoff) for text in query_texts
        ]
        coalescer = QueryCoalescer(_session_runner(serve_session), max_batch=64)
        results = _gather(
            coalescer, [([text], {"k": 2, "max_distance": cutoff}) for text in query_texts]
        )
        assert results == serial

    def test_empty_result_rows_come_back_empty(self, serve_session, query_texts):
        far = query_texts[-1]
        assert serve_session.query_many([far], k=2) == [[]]
        coalescer = QueryCoalescer(_session_runner(serve_session), max_batch=64)
        results = _gather(
            coalescer, [([query_texts[0]], {"k": 2}), ([far], {"k": 2})]
        )
        assert results[1] == [[]]


class TestWindowing:
    def test_different_parameters_never_share_a_batch(self, serve_session, query_texts):
        metrics = ServeMetrics()
        coalescer = QueryCoalescer(
            _session_runner(serve_session), max_batch=64, metrics=metrics
        )
        submissions = [
            ([query_texts[0]], {"k": 1}),
            ([query_texts[1]], {"k": 1}),
            ([query_texts[2]], {"k": 2}),
            ([query_texts[3]], {"k": 1, "max_distance": 0.5}),
        ]
        results = _gather(coalescer, submissions)
        assert metrics.batches == 3  # (k=1, None) ×2 shared; other keys alone
        assert results == [
            serve_session.query_many(texts, **kwargs) for texts, kwargs in submissions
        ]

    def test_size_trigger_flushes_full_batches(self, serve_session, query_texts):
        metrics = ServeMetrics()
        coalescer = QueryCoalescer(
            _session_runner(serve_session), max_batch=3, metrics=metrics
        )
        submissions = [([text], {"k": 1}) for text in query_texts]  # 7 texts, cap 3
        results = _gather(coalescer, submissions)
        assert results == [serve_session.query_many([t], k=1) for t in query_texts]
        assert metrics.coalesced_requests == len(query_texts)
        assert metrics.batches >= 3  # at least ceil(7 / 3) batches
        assert all(int(size) <= 3 for size in metrics.batch_size_hist)

    def test_disabled_coalescer_dispatches_each_request_alone(self, serve_session, query_texts):
        metrics = ServeMetrics()
        coalescer = QueryCoalescer(
            _session_runner(serve_session), max_batch=1, metrics=metrics
        )
        assert not coalescer.enabled
        results = _gather(coalescer, [([text], {"k": 2}) for text in query_texts])
        assert results == [serve_session.query_many([t], k=2) for t in query_texts]
        assert metrics.batches == len(query_texts)

    def test_runner_failure_reaches_every_waiter(self, serve_session):
        async def failing_runner(texts, k, max_distance):
            raise RuntimeError("engine exploded")

        coalescer = QueryCoalescer(failing_runner, max_batch=64)

        async def scenario():
            results = await asyncio.gather(
                coalescer.submit(["a"]), coalescer.submit(["b"]), return_exceptions=True
            )
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_pending_texts_gauge_drains_to_zero(self, serve_session, query_texts):
        coalescer = QueryCoalescer(_session_runner(serve_session), max_batch=64)

        async def scenario():
            task = asyncio.ensure_future(coalescer.submit([query_texts[0]], k=1))
            await asyncio.sleep(0)  # let submit open its batch
            depth = coalescer.pending_texts
            await task
            return depth, coalescer.pending_texts

        depth_open, depth_after = asyncio.run(scenario())
        assert depth_open == 1
        assert depth_after == 0


def _gated_runner(session, gate, calls):
    """A session runner that records each batch, then waits for ``gate``."""

    async def runner(texts, k, max_distance):
        calls.append(list(texts))
        await gate.wait()
        return session.query_many(texts, k=k, max_distance=max_distance)

    return runner


async def _ticks(count):
    for _ in range(count):
        await asyncio.sleep(0)


class TestWorkConserving:
    def test_idle_request_dispatches_without_waiting(self, serve_session, query_texts):
        calls = []

        async def scenario():
            gate = asyncio.Event()
            coalescer = QueryCoalescer(_gated_runner(serve_session, gate, calls))
            task = asyncio.ensure_future(coalescer.submit([query_texts[0]], k=2))
            await _ticks(3)
            dispatched = list(calls)
            gate.set()
            return dispatched, await task

        dispatched, rows = asyncio.run(scenario())
        assert dispatched == [[query_texts[0]]]
        assert rows == serve_session.query_many([query_texts[0]], k=2)

    def test_requests_queued_behind_a_busy_slot_ride_in_one_batch(
        self, serve_session, query_texts, rows_to_json
    ):
        texts = (query_texts * 2)[:8]
        calls = []
        metrics = ServeMetrics()

        async def scenario():
            gate = asyncio.Event()
            coalescer = QueryCoalescer(
                _gated_runner(serve_session, gate, calls), metrics=metrics
            )
            first = asyncio.ensure_future(coalescer.submit([query_texts[0]], k=2))
            await _ticks(3)  # the first batch now holds the only slot
            queued = [asyncio.ensure_future(coalescer.submit([t], k=2)) for t in texts]
            await _ticks(3)
            depth = coalescer.pending_texts
            gate.set()
            await first
            return depth, await asyncio.gather(*queued)

        depth, results = asyncio.run(scenario())
        assert depth == len(texts)
        assert calls == [[query_texts[0]], texts]
        assert metrics.batch_size_hist == {"1": 1, str(len(texts)): 1}
        for text, coalesced in zip(texts, results):
            alone = serve_session.query_many([text], k=2)
            assert canonical_json(rows_to_json(coalesced)) == canonical_json(rows_to_json(alone))

    def test_slots_bound_the_batches_in_flight(self, serve_session, query_texts):
        calls = []

        async def scenario():
            gate = asyncio.Event()
            coalescer = QueryCoalescer(_gated_runner(serve_session, gate, calls), slots=2)
            tasks = []
            for text in query_texts[:3]:
                tasks.append(asyncio.ensure_future(coalescer.submit([text], k=1)))
                await _ticks(3)
            in_flight, depth = len(calls), coalescer.pending_texts
            gate.set()
            return in_flight, depth, await asyncio.gather(*tasks)

        in_flight, depth, results = asyncio.run(scenario())
        assert (in_flight, depth) == (2, 1)
        assert calls == [[text] for text in query_texts[:3]]
        assert results == [serve_session.query_many([t], k=1) for t in query_texts[:3]]

    def test_cancelled_flush_tasks_cancel_their_waiters(self, serve_session, query_texts):
        calls = []

        async def scenario():
            gate = asyncio.Event()
            coalescer = QueryCoalescer(_gated_runner(serve_session, gate, calls))
            running = [
                asyncio.ensure_future(coalescer.submit([text], k=1))
                for text in query_texts[:2]
            ]
            await _ticks(3)  # one batch of two is inside the runner
            queued = asyncio.ensure_future(coalescer.submit([query_texts[2]], k=1))
            await _ticks(3)  # a second batch waits for the slot
            depth = coalescer.pending_texts
            flushes = list(coalescer._flush_tasks)
            for task in flushes:
                task.cancel()
            results = await asyncio.gather(*running, queued, return_exceptions=True)
            await _ticks(1)
            return depth, flushes, results, coalescer.pending_texts

        depth, flushes, results, depth_after = asyncio.run(scenario())
        assert depth == 1 and len(flushes) == 2 and len(calls) == 1
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        assert all(task.cancelled() for task in flushes)
        assert depth_after == 0
