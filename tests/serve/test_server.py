"""End-to-end serving-plane tests: real forked workers, real HTTP bytes.

Responses are pinned byte-for-byte against a local :class:`MatchSession`
over the same snapshot file, serialized through the same
:func:`~repro.serve.protocol.canonical_json` — the coalescer, the worker
frame round-trip, and the HTTP layer must all be value-preserving for these
to hold. The hot-reload test races queries against an ``os.replace`` of the
snapshot and requires every response to be wholly old or wholly new.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.io import refs_to_json
from repro.data.serialization import serialize_table
from repro.serve import MatchServer, ServeConfig
from repro.serve import worker as worker_module
from repro.serve.protocol import canonical_json
from repro.store import MatchSession, Snapshot


def _serve(snapshot_path, **overrides):
    defaults = dict(
        snapshot_path=str(snapshot_path),
        port=0,
        workers=2,
        reload_poll_s=0.0,  # individual tests opt into the watcher
    )
    defaults.update(overrides)
    return MatchServer(ServeConfig(**defaults))


def test_server_end_to_end(serve_snapshot, serve_session, serve_split, query_texts,
                           rows_to_json, http_request):
    _, held_out = serve_split

    # Expected /match-table document, computed on a throwaway session so the
    # shared module fixture stays pristine.
    with MatchSession.load(serve_snapshot) as scratch:
        fold = scratch.matcher.add_table(held_out)
        expected_tuples = sorted(refs_to_json(fold.tuples))
        expected_sources = list(scratch.known_sources)

    async def scenario():
        server = _serve(serve_snapshot)
        await server.start()
        try:
            status, _, body = await http_request(server.port, "GET", "/healthz")
            health = json.loads(body)
            assert (status, health["status"], health["workers"]) == (200, "ok", 2)
            assert health["generation"] == 0 and health["degraded_workers"] == 0

            # /query: byte-identical to the local session, single and multi.
            for texts, kwargs in [
                (query_texts[:1], {"k": 2}),
                (query_texts[:4], {"k": 3}),
                (query_texts[-1:], {"k": 2}),  # the no-hit text → empty row
                (query_texts[:3], {"k": 2, "max_distance": 0.35}),
            ]:
                expected = canonical_json(
                    {"rows": rows_to_json(serve_session.query_many(texts, **kwargs))}
                )
                status, _, body = await http_request(
                    server.port, "POST", "/query", dict(texts=texts, **kwargs)
                )
                assert (status, body) == (200, expected)
            baseline_query = body  # re-checked after /match-table below

            # Bad inputs map to statuses, never to connection teardown.
            for doc, path, expect in [
                ({"texts": []}, "/query", 400),
                ({"texts": [1, 2]}, "/query", 400),
                ({"texts": ["x"], "k": 0}, "/query", 400),
                ({"texts": ["x"], "k": True}, "/query", 400),
                ({"texts": ["x"], "max_distance": float("nan")}, "/query", 400),
                ({"texts": ["x"], "max_distance": True}, "/query", 400),
                (None, "/nope", 404),
                ({"table": "not-an-object"}, "/match-table", 400),
            ]:
                status, _, _ = await http_request(server.port, "POST", path, doc)
                assert status == expect
            status, _, _ = await http_request(server.port, "GET", "/query")
            assert status == 405

            # /match-table: the fold a local session would compute, and the
            # worker restores pristine state afterwards.
            table_doc = {
                "name": held_out.name,
                "schema": list(held_out.schema),
                "rows": [list(held_out.row(i)) for i in range(len(held_out))],
            }
            status, _, body = await http_request(
                server.port, "POST", "/match-table", {"table": table_doc}
            )
            document = json.loads(body)
            assert status == 200
            assert document["tuples"] == expected_tuples
            assert document["sources"] == expected_sources
            status, _, body = await http_request(
                server.port, "POST", "/query",
                {"texts": query_texts[:3], "k": 2, "max_distance": 0.35},
            )
            assert (status, body) == (200, baseline_query)

            # /metrics: the counters a load generator needs, live gauges too.
            status, _, body = await http_request(server.port, "GET", "/metrics")
            metrics = json.loads(body)
            assert status == 200
            assert metrics["requests_by_route"]["/query"] >= 6
            assert metrics["batches"] >= 1
            assert metrics["workers_healthy"] == 2 and metrics["workers_degraded"] == 0
            # The /metrics request itself is counted on entry but its own
            # response latency lands only after the snapshot is taken.
            assert metrics["latency"]["count"] == metrics["requests_total"] - 1
            assert metrics["responses_by_status"]["200"] >= 7
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_admission_control_rejects_past_high_water(serve_snapshot, query_texts, http_request):
    async def scenario():
        # One admitted request parks on the only worker's held dispatch lock,
        # filling the single in-flight slot; the next one is past high water.
        server = _serve(serve_snapshot, workers=1, max_inflight=1)
        await server.start()
        try:
            doc = {"texts": query_texts[:1]}
            async with server.plane.workers[0].lock:
                parked = asyncio.ensure_future(
                    http_request(server.port, "POST", "/query", doc)
                )
                for _ in range(200):
                    _, _, body = await http_request(server.port, "GET", "/metrics")
                    if json.loads(body)["inflight"] == 1:
                        break
                    await asyncio.sleep(0.01)
                status, headers, body = await http_request(server.port, "POST", "/query", doc)
            assert status == 503
            assert headers["retry-after"] == "1"
            assert b"capacity" in body
            assert server.metrics.rejected_queue_full == 1
            assert (await parked)[0] == 200
            # Reads are never gated by admission control.
            status, _, _ = await http_request(server.port, "GET", "/healthz")
            assert status == 200
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_k_past_the_table_answers_like_k_equal_to_its_size(
    serve_snapshot, serve_session, query_texts, http_request
):
    """An oversized k is clamped by the session: no huge allocation, no dead worker."""
    n = len(serve_session.matcher.integrated_table)

    async def scenario():
        server = _serve(serve_snapshot, workers=1)
        await server.start()
        try:
            answers = []
            for k in (n, 10**12):
                doc = {"texts": query_texts[:2], "k": k, "max_distance": 10.0}
                answers.append(await http_request(server.port, "POST", "/query", doc))
            (status_n, _, body_n), (status, _, body) = answers
            assert (status_n, status) == (200, 200)
            assert body == body_n and len(json.loads(body)["rows"][0]) == n
            _, _, body = await http_request(server.port, "GET", "/metrics")
            metrics = json.loads(body)
            assert (metrics["worker_deaths"], metrics["worker_restarts"]) == (0, 0)
        finally:
            await server.stop()

    # Bounded: a worker that raises outside ReproError must fail this test, not hang it.
    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def test_a_handler_error_outside_repro_answers_500_and_the_worker_serves_on(
    serve_snapshot, query_texts, http_request, monkeypatch
):
    """A non-``ReproError`` from a frame handler is a reply, not a dead worker."""
    real_query = worker_module._handle_query
    calls = []

    def raise_once(state, frame):
        calls.append(1)  # per process: the forked worker counts its own calls
        if len(calls) == 1:
            raise RuntimeError("handler bug")
        return real_query(state, frame)

    monkeypatch.setitem(worker_module._HANDLERS, "query", raise_once)  # before the fork

    async def scenario():
        server = _serve(serve_snapshot, workers=1)
        await server.start()
        try:
            pid = server.plane.workers[0].process.pid
            doc = {"texts": query_texts[:1], "k": 1}
            status, _, body = await http_request(server.port, "POST", "/query", doc)
            assert status == 500 and b"RuntimeError" in body
            status, _, _ = await http_request(server.port, "POST", "/query", doc)
            assert status == 200
            assert server.plane.workers[0].process.pid == pid
            _, _, body = await http_request(server.port, "GET", "/metrics")
            metrics = json.loads(body)
            assert (metrics["worker_deaths"], metrics["worker_restarts"]) == (0, 0)
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def test_deadline_budget_maps_to_504(serve_snapshot, query_texts, http_request):
    async def scenario():
        # The only worker's dispatch lock is held across the request, so the
        # frame cannot be sent and the 5 ms budget runs out deterministically.
        server = _serve(serve_snapshot, workers=1, deadline_ms=5.0)
        await server.start()
        try:
            async with server.plane.workers[0].lock:
                status, _, body = await http_request(
                    server.port, "POST", "/query", {"texts": query_texts[:1]}
                )
            assert status == 504
            assert b"deadline" in body
            assert server.metrics.rejected_deadline == 1
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_hot_reload_swaps_between_batches(
    serve_snapshot, music_tiny, serve_split, tmp_path, rows_to_json, http_request
):
    """Race queries against an ``os.replace`` of the snapshot: every response
    must be wholly old-state or wholly new-state, and the plane must converge
    on the new snapshot with the reload counter bumped."""
    _, held_out = serve_split
    probe = serialize_table(held_out, None, max_tokens=64)[0]

    live = tmp_path / "live.snap"
    shutil.copyfile(serve_snapshot, live)
    incoming = tmp_path / "incoming.snap"
    matcher = IncrementalMultiEM(paper_default_config(music_tiny.name))
    matcher.fit(music_tiny)  # all five sources: the probe's own table included
    matcher.save(incoming)
    matcher.close()

    with MatchSession.load(live) as old_session:
        old_body = canonical_json(
            {"rows": rows_to_json(old_session.query_many([probe], k=2))}
        )
    with MatchSession.load(incoming) as new_session:
        new_body = canonical_json(
            {"rows": rows_to_json(new_session.query_many([probe], k=2))}
        )
    assert old_body != new_body  # the probe text distinguishes the states

    async def scenario():
        server = _serve(live, reload_poll_s=0.02)
        await server.start()
        try:
            bodies = []

            async def hammer():
                while server.metrics.reloads == 0 and len(bodies) < 500:
                    status, _, body = await http_request(
                        server.port, "POST", "/query", {"texts": [probe], "k": 2}
                    )
                    assert status == 200
                    bodies.append(body)

            hammer_task = asyncio.ensure_future(hammer())
            await asyncio.sleep(0.01)  # land mid-hammer
            os.replace(incoming, live)
            await asyncio.wait_for(hammer_task, timeout=30)

            assert bodies, "hammer never got a response in"
            torn = [b for b in bodies if b not in (old_body, new_body)]
            assert not torn, f"{len(torn)} torn response(s), e.g. {torn[0]!r}"
            assert server.metrics.reloads >= 1

            # After the swap settles, answers come from the new state only.
            status, _, body = await http_request(
                server.port, "POST", "/query", {"texts": [probe], "k": 2}
            )
            assert (status, body) == (200, new_body)
            status, _, body = await http_request(server.port, "GET", "/healthz")
            health = json.loads(body)
            assert status == 200 and health["generation"] == 1
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_a_reload_onto_a_damaged_store_block_serves_queries_and_names_the_block(
    serve_snapshot, serve_session, serve_split, query_texts, rows_to_json, http_request,
    tmp_path,
):
    """A query reads no store block, so it answers; a table fold reads one, so it refuses."""
    _, held_out = serve_split
    live = tmp_path / "live.snap"
    shutil.copyfile(serve_snapshot, live)
    damaged = tmp_path / "damaged.snap"
    with Snapshot.open(serve_snapshot) as snapshot:
        offset = snapshot.entry("store/block1")["offset"] + 7
    data = bytearray(serve_snapshot.read_bytes())
    data[offset] ^= 0x10
    damaged.write_bytes(bytes(data))
    query = {"texts": query_texts[:4], "k": 3}
    expected = canonical_json({"rows": rows_to_json(serve_session.query_many(**query))})
    table_doc = {
        "name": held_out.name,
        "schema": list(held_out.schema),
        "rows": [list(held_out.row(i)) for i in range(len(held_out))],
    }

    async def scenario():
        server = _serve(live, workers=1, reload_poll_s=0.02)
        await server.start()
        try:
            os.replace(damaged, live)
            for _ in range(500):
                if server.metrics.reloads:
                    break
                await asyncio.sleep(0.02)
            assert server.metrics.reloads >= 1
            status, _, body = await http_request(server.port, "POST", "/query", query)
            assert (status, body) == (200, expected)
            status, _, body = await http_request(
                server.port, "POST", "/match-table", {"table": table_doc}
            )
            assert status == 400 and "store block 'store/block1'" in json.loads(body)["error"]
            status, _, body = await http_request(server.port, "POST", "/query", query)
            assert (status, body) == (200, expected)
            _, _, body = await http_request(server.port, "GET", "/metrics")
            metrics = json.loads(body)
            assert (metrics["worker_deaths"], metrics["worker_restarts"]) == (0, 0)
        finally:
            await server.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
