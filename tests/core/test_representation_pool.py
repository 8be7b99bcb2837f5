"""Stage R on the pool: the same bytes serially and threaded, in bounded memory.

``fit_stages`` hands its executor to ``EntityRepresenter.encode_dataset``,
which pools every table as one task of a flat map over the one id space of
the fit. These tests pin that the threaded run writes exactly the serial
run's bytes and counters, that no task's gather block outgrows its share of
``_POOL_BLOCK_ELEMENTS``, and that stages S and R never sort token strings.
"""

import numpy as np
import pytest

import repro.embedding.hashed as hashed_module
from repro.config import ParallelConfig, paper_default_config
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import MultiEM, fit_stages
from repro.core.representation import EntityRepresenter
from repro.embedding.hashed import HashedNGramEncoder
from repro.store.codecs import embedding_store_digest

SERIAL = ParallelConfig(enabled=False)
THREADED = ParallelConfig(enabled=True, max_workers=2)
DATASETS = {"geo": "geo_tiny", "music-20": "music_tiny", "shopee": "shopee_tiny"}


@pytest.mark.parametrize("name", list(DATASETS))
def test_serial_and_threaded_representation_write_the_same_bytes(name, request):
    dataset = request.getfixturevalue(DATASETS[name])
    config = paper_default_config(name)
    fitted = []
    # 5 workers: more threads than a small machine has CPUs, so tasks interleave.
    for parallel in (SERIAL, THREADED, ParallelConfig(enabled=True, max_workers=5)):
        with ParallelExecutor(parallel) as executor:
            fitted.append(fit_stages(dataset, config, executor))
    serial = fitted[0]
    serial_encoder = serial.representer.encoder.inner
    for threaded in fitted[1:]:
        threaded_encoder = threaded.representer.encoder.inner
        assert serial_encoder.batch_encodes == threaded_encoder.batch_encodes > 0
        assert serial_encoder.tokens_pooled == threaded_encoder.tokens_pooled > 0
        assert list(serial.store.blocks()) == list(threaded.store.blocks())
        for table, block in serial.store.blocks().items():
            assert block.tobytes() == threaded.store.blocks()[table].tobytes()
        assert embedding_store_digest(serial.store) == embedding_store_digest(threaded.store)
    for table, block in serial.store.blocks().items():
        # The pooled path equals the plain serialize -> encode path.
        plain = serial.representer.encode_table(dataset.tables[table], serial.attributes)
        assert plain.vectors.tobytes() == block.tobytes()

    tuples = [
        MultiEM(config.with_overrides(parallel=vars(parallel))).match(dataset).tuples
        for parallel in (SERIAL, THREADED)
    ]
    assert tuples[0] == tuples[1]


def test_stages_s_and_r_never_sort_token_strings(music_tiny, monkeypatch):
    """numpy sorts an object array through Python ``<``; S and R must not call it."""
    unique = np.unique

    def guarded(array, *args, **kwargs):
        if np.asarray(array).dtype == object:
            raise AssertionError("np.unique over an object array of tokens")
        return unique(array, *args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)
    result = MultiEM(paper_default_config("music-20")).match(music_tiny)
    assert len(result.selected_attributes) < len(music_tiny.schema)  # stage S ran
    assert result.num_tuples > 0


class _GatherLog(np.ndarray):
    """Token-vector matrix that records the size of every 3-d (t, s, d) gather."""

    sizes: list = []

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        if out.ndim == 3:
            _GatherLog.sizes.append(out.size)
        return out


def test_pooled_tables_hold_no_more_gather_memory_than_serial(shopee_tiny, monkeypatch):
    config = paper_default_config("shopee").representation
    longest = max(
        len(text.split()) for table in shopee_tiny.table_list() for text in table.column("title")
    )
    # The largest text's block still fits half the cap, so the per-worker
    # split never falls back to a one-text block above it.
    cap = 4 * (longest + 1) * config.dimension
    monkeypatch.setattr(hashed_module, "_POOL_BLOCK_ELEMENTS", cap)
    original = HashedNGramEncoder.token_vectors_and_weights

    def logged(self, tokens):
        vectors, weights = original(self, tokens)
        return vectors.view(_GatherLog), weights

    monkeypatch.setattr(HashedNGramEncoder, "token_vectors_and_weights", logged)
    gathers, matrices = {}, {}
    for label, parallel in (("serial", SERIAL), ("threaded", THREADED)):
        _GatherLog.sizes = []
        representer = EntityRepresenter(config)
        representer.fit(shopee_tiny, shopee_tiny.schema)
        with ParallelExecutor(parallel) as executor:
            embeddings = representer.encode_dataset(shopee_tiny, shopee_tiny.schema, executor)
        gathers[label] = _GatherLog.sizes
        matrices[label] = [table.vectors.tobytes() for table in embeddings.values()]
    assert matrices["serial"] == matrices["threaded"]
    assert len(gathers["threaded"]) > len(gathers["serial"]) > len(shopee_tiny.tables)
    assert max(gathers["serial"]) <= cap
    assert max(gathers["serial"]) > cap // 2  # so the bound below is not vacuous
    assert max(gathers["threaded"]) <= cap // 2
