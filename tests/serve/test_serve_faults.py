"""Fault injection against the worker plane: kill a worker mid-request.

The plan's ``worker_fault="kill"`` is claimed parent-side per dispatch
attempt and shipped inside the frame; the worker executes it before touching
the request (``os._exit(86)``), which the dispatcher observes as EOF. The
pinned behaviour: the request is retried on a sibling and the response is
byte-identical to the no-fault answer, the death shows up in the metrics,
and — with respawn enabled — the plane heals back to full strength.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import faults
from repro.serve import MatchServer, ServeConfig, ServeMetrics, WorkerPlane
from repro.serve.protocol import canonical_json

pytestmark = pytest.mark.faults


def test_worker_kill_mid_request_retries_on_sibling(
    serve_snapshot, serve_session, query_texts, rows_to_json
):
    expected = {
        "ok": True,
        "rows": rows_to_json(serve_session.query_many(query_texts[:2], k=2)),
    }

    async def scenario():
        metrics = ServeMetrics()
        plane = WorkerPlane(str(serve_snapshot), 2, metrics=metrics, respawn=False)
        await plane.start()
        try:
            plan = faults.FaultPlan(worker_fault="kill", worker_fault_task=0)
            with faults.inject(plan):
                reply = await plane.request(
                    {"op": "query", "texts": query_texts[:2], "k": 2}
                )
            assert plan.counters["worker_fault_claimed"] == 1
            # The sibling's answer, byte-identical to the no-fault response.
            survivor = reply.pop("worker")
            assert reply == expected
            assert metrics.worker_deaths == 1
            assert metrics.worker_retries == 1
            assert plane.degraded == 1 and plane.healthy == 1
            # The degraded plane still serves, pinned to the survivor.
            again = await plane.request({"op": "query", "texts": query_texts[:2], "k": 2})
            assert again.pop("worker") == survivor
            assert again == expected
        finally:
            await plane.close()

    asyncio.run(scenario())


def test_all_workers_dead_is_a_serve_error(serve_snapshot, query_texts):
    from repro.exceptions import ServeError

    async def scenario():
        plane = WorkerPlane(str(serve_snapshot), 1, respawn=False)
        await plane.start()
        try:
            plan = faults.FaultPlan(
                worker_fault="kill", worker_fault_task=0, worker_fault_repeat=True
            )
            with faults.inject(plan):
                with pytest.raises(ServeError, match="no healthy worker"):
                    await plane.request({"op": "query", "texts": query_texts[:1], "k": 1})
        finally:
            await plane.close()

    asyncio.run(scenario())


def test_server_answers_through_a_worker_kill(
    serve_snapshot, serve_session, query_texts, rows_to_json, http_request
):
    """Full HTTP path: the client sees a correct 200, /metrics sees the death."""
    expected = canonical_json(
        {"rows": rows_to_json(serve_session.query_many(query_texts[:2], k=2))}
    )

    async def scenario():
        config = ServeConfig(
            snapshot_path=str(serve_snapshot), port=0, workers=2,
            reload_poll_s=0.0,
        )
        server = MatchServer(config)
        server.plane.respawn = False  # hold the degraded state for inspection
        await server.start()
        try:
            with faults.inject(faults.FaultPlan(worker_fault="kill", worker_fault_task=0)):
                status, _, body = await http_request(
                    server.port, "POST", "/query", {"texts": query_texts[:2], "k": 2}
                )
            assert (status, body) == (200, expected)
            status, _, body = await http_request(server.port, "GET", "/metrics")
            metrics = json.loads(body)
            assert status == 200
            assert metrics["worker_deaths"] == 1
            assert metrics["worker_retries"] == 1
            assert metrics["workers_degraded"] == 1
            assert metrics["workers_healthy"] == 1
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_plane_respawns_after_a_kill(serve_snapshot, serve_session, query_texts, rows_to_json):
    expected_rows = rows_to_json(serve_session.query_many(query_texts[:1], k=1))

    async def scenario():
        metrics = ServeMetrics()
        plane = WorkerPlane(str(serve_snapshot), 2, metrics=metrics, respawn=True)
        await plane.start()
        try:
            with faults.inject(faults.FaultPlan(worker_fault="kill", worker_fault_task=0)):
                reply = await plane.request({"op": "query", "texts": query_texts[:1], "k": 1})
            assert reply["rows"] == expected_rows
            for _ in range(200):  # the respawn task runs off-path; wait for it
                if plane.healthy == 2:
                    break
                await asyncio.sleep(0.05)
            assert plane.healthy == 2 and plane.degraded == 0
            assert metrics.worker_restarts == 1
            # The replacement serves the same bytes as everyone else.
            reply = await plane.request({"op": "query", "texts": query_texts[:1], "k": 1})
            assert reply["rows"] == expected_rows
        finally:
            await plane.close()

    asyncio.run(scenario())
