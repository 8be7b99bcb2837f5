"""Multi-byte snapshot damage: every damaged copy is refused with a StoreError.

Seeded offsets damage 1, 8 or 64 contiguous bytes of a music-20 ``tiny`` full
snapshot and of a 3-delta chain tip (the tip file only), 200 cases each,
with offsets drawn over the whole file and, in two more cases, over the
64-byte header block.
Each case loads the session, takes every store row and asks one query, so a
store block the load hands over unread is checked by the take. A case either
raises :class:`StoreError` (no other exception, no silent load), or its
damage lies wholly in alignment padding and it answers like the intact file;
``fsck`` reaches the same verdict.
"""

from __future__ import annotations

import shutil
import struct

import numpy as np
import pytest

from repro.config import paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.data.serialization import serialize_table
from repro.exceptions import StoreError
from repro.store import MatchSession, Snapshot, fsck_store

pytestmark = pytest.mark.faults

WIDTHS = (1, 8, 64)
CASES = 200
HEADER_BLOCK = 64  #: the header and its padding: the first segment starts here


def _padding(path) -> "set[int]":
    """Offsets of the file's alignment padding: no header, segment or manifest byte."""
    data = path.read_bytes()
    _, _, manifest_offset, manifest_length = struct.unpack("<8sQQQ", data[:32])
    used = np.zeros(len(data), dtype=bool)
    used[:32] = True
    used[manifest_offset : manifest_offset + manifest_length] = True
    with Snapshot.open(path) as snapshot:
        for name in snapshot.names():
            entry = snapshot.entry(name)
            used[entry["offset"] : entry["offset"] + entry["nbytes"]] = True
    return set(np.flatnonzero(~used).tolist())


def _outcome(path, text):
    """The answer after a load, a take of every store row and one query; or the StoreError."""
    try:
        with MatchSession.load(path) as session:
            store = session.matcher._store
            store.take(np.arange(len(store)))
            return session.query_many([text], k=3)
    except StoreError as exc:
        return exc


@pytest.fixture(scope="module")
def stores(music_tiny, tmp_path_factory):
    """``{kind: (directory, damaged file name, query text)}`` for a full file and a chain tip."""
    names = sorted(music_tiny.tables)
    text = serialize_table(music_tiny.tables[names[0]], None, max_tokens=64)[0]
    full = tmp_path_factory.mktemp("full")
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny)
        matcher.save(full / "s.snap")
    chain = tmp_path_factory.mktemp("chain")
    with IncrementalMultiEM(paper_default_config(music_tiny.name)) as matcher:
        matcher.fit(music_tiny.subset(names[:2], name=music_tiny.name))
        matcher.save(chain / "s.snap")
        for depth, name in enumerate(names[2:5], start=1):
            matcher.add_table(music_tiny.tables[name])
            matcher.save(chain / f"s.snap.d{depth}", mode="delta")
    return {"full": (full, "s.snap", text), "chain-tip": (chain, "s.snap.d3", text)}


@pytest.mark.parametrize(
    "kind, seed, starts, min_refused",
    [
        pytest.param("full", 0, None, CASES - 5, id="full-0"),
        pytest.param("chain-tip", 1, None, CASES - 5, id="chain-tip-1"),
        # Damage starting in the 64-byte header block: magic, version, manifest
        # offset and length, then padding up to the first segment.
        pytest.param("full", 2, HEADER_BLOCK, CASES // 2, id="full-header-2"),
        pytest.param("chain-tip", 3, HEADER_BLOCK, CASES // 2, id="chain-tip-header-3"),
    ],
)
def test_multi_byte_damage_is_refused_or_lands_in_padding(
    stores, tmp_path, kind, seed, starts, min_refused
):
    """Offsets are drawn over the whole file, or over its first ``starts`` bytes."""
    source, name, text = stores[kind]
    intact = _outcome(source / name, text)
    assert not isinstance(intact, StoreError) and intact[0]
    pristine = (source / name).read_bytes()
    padding = _padding(source / name)
    rng = np.random.default_rng(seed)
    directory = tmp_path / "store"
    shutil.copytree(source, directory)
    refused = 0
    for case in range(CASES):
        width = int(rng.choice(WIDTHS))
        offset = int(rng.integers(0, starts or len(pristine) - width + 1))
        mask = rng.integers(1, 256, size=width, dtype=np.uint8)  # every byte changes
        data = np.frombuffer(pristine, dtype=np.uint8).copy()
        data[offset : offset + width] ^= mask
        (directory / name).write_bytes(data.tobytes())
        outcome = _outcome(directory / name, text)
        where = f"case {case}: {width} byte(s) at {offset}"
        in_padding = set(range(offset, offset + width)) <= padding
        if isinstance(outcome, StoreError):
            assert not in_padding, f"{where}: padding damage refused ({outcome})"
            refused += 1
        else:
            assert in_padding, f"{where}: damage outside padding loaded and answered"
            assert outcome == intact, f"{where}: padding damage changed an answer"
        assert fsck_store(directory).ok == in_padding, where
    assert refused >= min_refused


def _damage_the_magic(stores, tmp_path, kind, width):
    """A copy of the store whose damaged file has its first ``width`` bytes flipped."""
    source, name, text = stores[kind]
    directory = tmp_path / f"magic-{width}"
    shutil.copytree(source, directory)
    data = bytearray((source / name).read_bytes())
    for i in range(width):
        data[i] ^= 0xFF
    (directory / name).write_bytes(bytes(data))
    return directory, name, text


@pytest.mark.parametrize("kind", ["full", "chain-tip"])
def test_damage_to_the_magic_is_refused_at_load(stores, tmp_path, kind):
    for width in WIDTHS:
        directory, name, text = _damage_the_magic(stores, tmp_path, kind, width)
        assert isinstance(_outcome(directory / name, text), StoreError), width


@pytest.mark.parametrize("kind", ["full", "chain-tip"])
def test_fsck_agrees_with_load_on_damage_to_the_magic(stores, tmp_path, kind):
    for width in WIDTHS:
        directory, _, _ = _damage_the_magic(stores, tmp_path, kind, width)
        assert not fsck_store(directory).ok, width
