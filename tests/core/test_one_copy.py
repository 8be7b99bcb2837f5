"""Each vector plane is resident once: the store's blocks, shared by the text cache.

After ``fit`` and two ``add_table`` calls the encoder cache holds row views
of the store's blocks, ``CachingEncoder.encode`` hands out read-only arrays,
and the store keeps no array beside its blocks. Pruning gathers its member
rows out of those blocks (``EmbeddingStore.take``), which must equal a fancy
index into the blocks laid end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ParallelConfig, paper_default_config
from repro.core.incremental import IncrementalMultiEM
from repro.core.parallel import ParallelExecutor
from repro.core.pruning import prune_item_table
from repro.core.representation import EmbeddingStore, TableEmbeddings
from repro.data import EntityRef
from repro.store import load_matcher


@pytest.fixture(scope="module")
def grown(music_tiny):
    """A matcher fitted on three tables, then grown by two ``add_table`` calls."""
    names = sorted(music_tiny.tables)
    matcher = IncrementalMultiEM(paper_default_config("music-20"))
    matcher.fit(music_tiny.subset(names[:3], name="initial"))
    for name in names[3:5]:
        matcher.add_table(music_tiny.tables[name])
    yield matcher
    matcher.close()


def _concatenated(store: EmbeddingStore) -> np.ndarray:
    return np.concatenate(list(store.blocks().values()))


def test_every_cache_entry_shares_memory_with_a_store_block(grown):
    cache = grown._representer.encoder._cache
    blocks = list(grown._store.blocks().values())
    assert cache
    for vector in cache.values():
        assert any(np.shares_memory(vector, block) for block in blocks)
        assert not vector.flags.writeable


def test_an_encoded_array_is_read_only(grown):
    encoded = grown._representer.encoder.encode(["a text no table holds", "another one"])
    with pytest.raises(ValueError):
        encoded[0, 0] = 1.0
    again = grown._representer.encoder.encode(["a text no table holds"])  # a cache hit
    assert again.tobytes() == encoded[:1].tobytes()


def test_one_new_text_among_cached_ones_pins_only_its_own_row():
    """1,000 hits and one new text: the new entry is a row of a 1-row copy, not of the batch."""
    from repro.embedding import CachingEncoder, HashedNGramEncoder

    texts = [f"cached text number {i}" for i in range(1000)]
    encoder = CachingEncoder(HashedNGramEncoder(dimension=32).fit(texts))
    encoder.encode(texts)
    encoded = encoder.encode([*texts, "one new text"])
    entry = encoder._cache["one new text"]
    assert not np.shares_memory(entry, encoded)
    assert entry.base.shape == (1, 32) and not entry.flags.writeable
    assert entry.tobytes() == encoded[-1].tobytes()


def test_the_store_holds_no_array_besides_its_blocks(grown):
    store = grown._store
    held = []
    for name, value in vars(store).items():
        if isinstance(value, np.ndarray):
            held.append(name)
        elif isinstance(value, dict) and name != "_blocks":
            held += [name for item in value.values() if isinstance(item, np.ndarray)]
    assert held == []


def _store(sizes, width=6, seed=3) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    store = EmbeddingStore()
    for t, rows in enumerate(sizes):
        name = f"t{t}"
        vectors = rng.normal(size=(rows, width)).astype(np.float32)
        store.add_table(TableEmbeddings(name, [EntityRef(name, i) for i in range(rows)], vectors))
    return store


@pytest.mark.parametrize("sizes", [(5, 0, 3, 1), (0, 4), (7,), (2, 3, 0)])
def test_take_equals_a_fancy_index_into_the_concatenated_blocks(sizes):
    store = _store(sizes)
    total = sum(sizes)
    rng = np.random.default_rng(len(sizes))
    for rows in (
        np.arange(total),
        rng.permutation(total),
        rng.integers(0, total, size=3 * total),  # repeats, out of order
        np.zeros(0, dtype=np.int64),
    ):
        taken = store.take(rows)
        assert taken.dtype == np.float32 and taken.shape == (rows.size, 6)
        assert taken.tobytes() == _concatenated(store)[rows].tobytes()


def test_take_reads_the_read_only_blocks_of_an_mmap_loaded_snapshot(grown, tmp_path):
    path = tmp_path / "grown.snap"
    grown.save(path, mode="full")
    loaded = load_matcher(path, mmap=True)
    try:
        store = loaded._store
        assert not any(block.flags.writeable for block in store.blocks().values())
        rows = np.random.default_rng(0).permutation(len(store))
        assert store.take(rows).tobytes() == _concatenated(grown._store)[rows].tobytes()
    finally:
        loaded.close()


def test_serial_and_parallel_pruning_stay_byte_equal(grown):
    store, table, config = grown._store, grown.integrated_table, grown.config.pruning
    outputs = []
    for parallel in (ParallelConfig(enabled=False), ParallelConfig(enabled=True, max_workers=3)):
        with ParallelExecutor(parallel) as executor:
            pruned = prune_item_table(table, store, config, executor=executor)
        outputs.append([(item.members, item.vector.tobytes()) for item in pruned])
    assert outputs[0] and outputs[0] == outputs[1]
