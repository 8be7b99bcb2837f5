"""Idle-first dispatch: a frame never queues behind a busy worker while a
sibling idles, and the rotation counter fault injection keys on still
advances once per attempt."""

from __future__ import annotations

import asyncio

from repro.serve import WorkerPlane


def test_busy_rotation_head_hands_the_frame_to_an_idle_sibling(
    serve_snapshot, serve_session, query_texts, rows_to_json
):
    expected = rows_to_json(serve_session.query_many(query_texts[:1], k=1))
    frame = {"op": "query", "texts": query_texts[:1], "k": 1}

    async def scenario():
        plane = WorkerPlane(str(serve_snapshot), 2, respawn=False)
        await plane.start()
        try:
            async with plane.workers[0].lock:  # the rotation head is busy
                reply = await asyncio.wait_for(plane.request(frame), 30)
            assert (reply["worker"], reply["rows"]) == (1, expected)
            assert plane.dispatch_count == 1
            # Both idle: the rotation (now headed by worker 1) is unchanged.
            again = await plane.request(frame)
            assert (again["worker"], again["rows"]) == (1, expected)
            assert plane.dispatch_count == 2
        finally:
            await plane.close()

    asyncio.run(scenario())
