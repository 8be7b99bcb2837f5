"""Chain-directory serving: the watcher follows a delta chain's tip.

Pointing the server at a *directory* instead of a file means "serve the
deepest loadable snapshot in here, and keep following it": appending a delta
segment (``matcher.save(path, mode="delta")``) must hot-reload every worker
onto the new tip without a restart, and responses before/after must be
byte-identical to a local :class:`MatchSession` over the respective tips.
"""

from __future__ import annotations

import asyncio
import json
import shutil

import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.serialization import serialize_table
from repro.exceptions import ServeError
from repro.serve import MatchServer, ServeConfig
from repro.serve.protocol import canonical_json
from repro.serve.server import _resolve_chain_tip
from repro.store import MatchSession, Snapshot
from repro.store.session import load_matcher


def _serve(snapshot_path, **overrides):
    defaults = dict(
        snapshot_path=str(snapshot_path),
        port=0,
        workers=2,
        reload_poll_s=0.0,
    )
    defaults.update(overrides)
    return MatchServer(ServeConfig(**defaults))


def test_resolve_chain_tip_picks_deepest(serve_snapshot, serve_split, tmp_path):
    _, held_out = serve_split
    chain = tmp_path / "chain"
    chain.mkdir()
    tip0 = chain / "fit.snap"
    shutil.copyfile(serve_snapshot, tip0)
    (chain / "junk.txt").write_text("not a snapshot")
    (chain / ".hidden").write_text("skipped by name")
    assert _resolve_chain_tip(str(chain)) == str(tip0)

    matcher = load_matcher(tip0)
    matcher.add_table(held_out)
    matcher.save(chain / "fit.snap.d1", mode="delta")
    matcher.close()
    assert _resolve_chain_tip(str(chain)) == str(chain / "fit.snap.d1")

    empty = tmp_path / "empty"
    empty.mkdir()
    assert _resolve_chain_tip(str(empty)) is None
    with pytest.raises(ServeError):
        _serve(empty)


def test_resolving_a_chain_tip_reads_manifests_only(music_tiny, tmp_path, monkeypatch):
    """The tip of a three-file chain is chosen from manifests: no segment is read."""
    names = sorted(music_tiny.tables)
    chain = tmp_path / "chain"
    chain.mkdir()
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny.subset(names[:-2], name=music_tiny.name))
        matcher.save(chain / "s.snap")
        for depth, name in enumerate(names[-2:], start=1):
            matcher.add_table(music_tiny.tables[name])
            matcher.save(chain / f"s.snap.d{depth}", mode="delta")

    def read_a_segment(*args, **kwargs):
        raise AssertionError("the chain-tip choice read a segment")

    # ``array`` reads a mapped segment; ``_view`` is also what a copying open reads.
    monkeypatch.setattr(Snapshot, "array", read_a_segment)
    monkeypatch.setattr(Snapshot, "_view", read_a_segment)
    assert _resolve_chain_tip(str(chain)) == str(chain / "s.snap.d2")


def test_chain_directory_follows_appended_delta(
    serve_snapshot, serve_split, tmp_path, rows_to_json, http_request
):
    """Append a delta while serving: workers converge on the new tip."""
    _, held_out = serve_split
    probe = serialize_table(held_out, None, max_tokens=64)[0]

    chain = tmp_path / "chain"
    chain.mkdir()
    tip0 = chain / "fit.snap"
    shutil.copyfile(serve_snapshot, tip0)
    with MatchSession.load(tip0) as session:
        old_body = canonical_json(
            {"rows": rows_to_json(session.query_many([probe], k=2))}
        )

    # The appended state, prepared up front; only the save happens live.
    matcher = load_matcher(tip0)
    matcher.add_table(held_out)

    async def scenario():
        server = _serve(chain, reload_poll_s=0.05)
        await server.start()
        try:
            status, _, body = await http_request(
                server.port, "POST", "/query", {"texts": [probe], "k": 2}
            )
            assert (status, body) == (200, old_body)

            delta = chain / "fit.snap.d1"
            matcher.save(delta, mode="delta")
            with MatchSession.load(delta) as session:
                new_body = canonical_json(
                    {"rows": rows_to_json(session.query_many([probe], k=2))}
                )
            assert new_body != old_body  # the probe's own table is now known

            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30
            while server.metrics.reloads == 0:
                assert loop.time() < deadline, "watcher never followed the appended tip"
                await asyncio.sleep(0.05)

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
    matcher.close()
