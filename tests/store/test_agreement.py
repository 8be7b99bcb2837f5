"""Every path that judges a snapshot reaches the same verdict on the same damage.

One music-20 ``tiny`` chain (a base and two deltas) is damaged one way per
row, and four paths judge its tip: a verified load plus a ``take`` over
every store row, ``fsck_store`` over the directory, the exit code of
``snapshot inspect`` and ``deepest_intact``. They share one directory
reader, one per-file check and one link rule, so they must agree on every
row: the damage is refused by all four, or, on the intact row, by none.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.exceptions import StoreError
from repro.store import Snapshot, SnapshotWriter, deepest_intact, fsck_store, load_matcher

pytestmark = pytest.mark.faults

TIP = "s.snap.d2"


@pytest.fixture(scope="module")
def chain(music_tiny, tmp_path_factory):
    """``s.snap -> s.snap.d1 -> s.snap.d2``; tests damage a copy."""
    names = sorted(music_tiny.tables)
    directory = tmp_path_factory.mktemp("chain")
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny.subset(names[:-2], name=music_tiny.name))
        matcher.save(directory / "s.snap")
        for depth, name in enumerate(names[-2:], start=1):
            matcher.add_table(music_tiny.tables[name])
            matcher.save(directory / f"s.snap.d{depth}", mode="delta")
    return directory


def _flip(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _flip_segment(path, prefix: str) -> None:
    """Flip a byte inside the file's first non-empty segment under ``prefix``."""
    with Snapshot.open(path) as snapshot:
        entry = next(
            snapshot.entry(name)
            for name in snapshot.names()
            if name.startswith(prefix) and snapshot.entry(name)["nbytes"]
        )
    _flip(path, entry["offset"] + 3)


def _rewrite(path, edit) -> None:
    """Rewrite a snapshot, segments untouched, after ``edit`` changes its manifest's
    ``meta`` / ``chain`` / ``delta``; the payload is re-recorded, so only the edit is wrong."""
    with Snapshot.open(path, mmap=False) as snapshot:
        writer = SnapshotWriter()
        for name in snapshot.names():
            writer.add_array(name, snapshot.array(name))
        tree = copy.deepcopy(
            {"meta": snapshot.meta, "chain": snapshot.chain, "delta": snapshot.delta}
        )
    edit(tree)
    writer.set_meta(tree["meta"])
    writer.set_chain(tree["chain"])
    writer.set_delta(tree["delta"])
    tree["meta"]["digests"]["payload"] = writer.payload_digest()
    writer.save(path)


def _segment_entry_not_an_object(path) -> None:
    """Replace one manifest segment entry with a number, the header still pointing at it."""
    data = path.read_bytes()
    _, version, offset, length = struct.unpack("<8sQQQ", data[:32])
    manifest = json.loads(data[offset : offset + length])
    manifest["arrays"][next(iter(manifest["arrays"]))] = 5
    encoded = json.dumps(manifest).encode()
    path.write_bytes(
        data[:8] + struct.pack("<QQQ", version, offset, len(encoded)) + data[32:offset] + encoded
    )


def _first_op(op):
    """A manifest edit for :func:`_rewrite`: the delta's first op becomes ``op``."""

    def edit(tree) -> None:
        arrays = tree["delta"]["arrays"]
        arrays[next(iter(arrays))] = op

    return edit


DAMAGE = {
    "intact": lambda d: None,
    "magic": lambda d: _flip(d / TIP, 0),
    "truncated-manifest": lambda d: (d / TIP).write_bytes((d / TIP).read_bytes()[:-16]),
    "delta-without-chain": lambda d: _rewrite(d / TIP, lambda tree: tree.update(chain=None)),
    "chain-without-delta": lambda d: _rewrite(d / TIP, lambda tree: tree.update(delta=None)),
    "delta-without-arrays": lambda d: _rewrite(d / TIP, lambda tree: tree.update(delta={})),
    "segment": lambda d: _flip_segment(d / TIP, "table/"),
    "store-block": lambda d: _flip_segment(d / TIP, "store/block"),
    "replaced-parent": lambda d: _rewrite(
        d / "s.snap.d1", lambda tree: tree["meta"].update(note="replaced")
    ),
    "depth": lambda d: _rewrite(d / TIP, lambda tree: tree["chain"].update(depth=3)),
    "segment-entry": lambda d: _segment_entry_not_an_object(d / TIP),
    "op-without-keys": lambda d: _rewrite(d / TIP, _first_op({"op": "patch"})),
}


def _loads(tip) -> bool:
    try:
        with load_matcher(tip) as matcher:
            matcher._store.take(np.arange(len(matcher._store)))
    except StoreError:
        return False
    return True


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_every_path_reaches_the_same_verdict(chain, tmp_path, damage):
    directory = tmp_path / "store"
    shutil.copytree(chain, directory)
    DAMAGE[damage](directory)
    tip = directory / TIP
    verdicts = {
        "load + take": _loads(tip),
        "fsck": fsck_store(directory).ok,
        "inspect": main(["snapshot", "inspect", str(tip)]) == 0,
        "deepest_intact": deepest_intact(tip) == str(tip),
    }
    intact = damage == "intact"
    assert verdicts == dict.fromkeys(verdicts, intact), verdicts


MALFORMED_OPS = {
    "not-an-object": 5,
    "unknown-op": {"op": "move"},
    "patch-without-shape": {"op": "patch", "dtype": "<f4", "base_rows": 1},
    "patch-shape-not-ints": {"op": "patch", "dtype": "<f4", "shape": [1.5], "base_rows": 1},
    "patch-base-rows-not-int": {"op": "patch", "dtype": "<f4", "shape": [1], "base_rows": "1"},
    "alias-without-of": {"op": "alias"},
    "of-not-a-string": {"op": "ref", "of": 5},
}


@pytest.mark.parametrize("kind", list(MALFORMED_OPS))
def test_a_malformed_delta_op_is_refused_by_name(chain, tmp_path, kind):
    tip = tmp_path / TIP
    shutil.copy(chain / TIP, tip)
    with Snapshot.open(tip) as snapshot:
        name = next(iter(snapshot.delta["arrays"]))
    _rewrite(tip, _first_op(MALFORMED_OPS[kind]))
    with pytest.raises(StoreError, match=re.escape(f"delta op of {name!r} is malformed")):
        Snapshot.open(tip)
