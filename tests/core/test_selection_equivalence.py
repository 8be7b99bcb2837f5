"""Algorithm 1 on the spliced column token index vs the historical path.

The reference below is the pre-columnar ``select_attributes`` verbatim:
serialize the sampled table, then per attribute shuffle the column through
``Table.with_column_shuffled``, re-serialize, re-encode. The spliced
implementation must reproduce the selected attributes **and** every score
float exactly — including when serializer-level (whitespace) truncation
forces rows through the canonical fallback.
"""

import numpy as np
import pytest

from repro.config import RepresentationConfig
from repro.core.attribute_selection import select_attributes
from repro.core.representation import EntityRepresenter
from repro.data.generators import load_benchmark
from repro.data.serialization import serialize_table
from repro.data.table import Table


def select_attributes_reference(dataset, representer, config):
    """The historical implementation, returning (selected, scores)."""
    rng = np.random.default_rng(config.seed)
    combined = Table.concat(dataset.table_list(), name="__combined__")
    sampled = combined.sample(config.sample_ratio, rng)
    schema = sampled.schema
    if len(schema) == 1:
        return schema, {schema[0]: 1.0}
    base_texts = serialize_table(sampled, max_tokens=config.max_sequence_length)
    representer.encoder.fit(base_texts)
    base_embeddings = representer.encode_texts(base_texts)
    scores = {}
    for attribute in schema:
        shuffled = sampled.with_column_shuffled(attribute, rng)
        shuffled_texts = serialize_table(shuffled, max_tokens=config.max_sequence_length)
        shuffled_embeddings = representer.encode_texts(shuffled_texts)
        similarity = np.einsum("ij,ij->i", base_embeddings, shuffled_embeddings)
        scores[attribute] = float(np.mean(1.0 - similarity))
    threshold = 1.0 - config.gamma
    selected = tuple(a for a in schema if scores[a] >= threshold)
    if not selected:
        selected = (max(schema, key=lambda a: scores[a]),)
    return selected, scores


@pytest.mark.parametrize("dataset_name", ["music-20", "geo"])
@pytest.mark.parametrize("max_sequence_length", [64, 6])
def test_selection_matches_reference(dataset_name, max_sequence_length):
    # max_sequence_length=6 forces whitespace-truncation overflow rows
    # through the canonical serialize-and-encode fallback.
    dataset = load_benchmark(dataset_name, profile="tiny")
    config = RepresentationConfig(max_sequence_length=max_sequence_length)
    result = select_attributes(dataset, EntityRepresenter(config), config)
    want_selected, want_scores = select_attributes_reference(
        dataset, EntityRepresenter(config), config
    )
    assert result.selected == want_selected
    assert result.scores == want_scores  # float-exact


@pytest.mark.parametrize("seed", [0, 7])
def test_selection_matches_reference_across_seeds(seed):
    dataset = load_benchmark("music-20", profile="tiny")
    config = RepresentationConfig(seed=seed, sample_ratio=0.5)
    result = select_attributes(dataset, EntityRepresenter(config), config)
    want_selected, want_scores = select_attributes_reference(
        dataset, EntityRepresenter(config), config
    )
    assert result.selected == want_selected
    assert result.scores == want_scores


def test_representer_token_table_reuse_is_byte_identical(music_tiny):
    """encode_dataset's stashed-token-table path == serialize-and-encode."""
    from repro.embedding import HashedNGramEncoder

    config = RepresentationConfig(dimension=64)
    representer = EntityRepresenter(config)
    embeddings = representer.encode_dataset(music_tiny, ["title", "artist"])
    reference_encoder = HashedNGramEncoder(dimension=64)
    corpus = []
    for table in music_tiny.table_list():
        corpus.extend(
            serialize_table(table, ["title", "artist"], max_tokens=config.max_sequence_length)
        )
    reference_encoder.fit(corpus)
    for table in music_tiny.table_list():
        texts = serialize_table(table, ["title", "artist"], max_tokens=config.max_sequence_length)
        assert np.array_equal(embeddings[table.name].vectors, reference_encoder.encode(texts))


def test_representer_stash_falls_back_after_append(music_tiny):
    """A table appended to after fit() must be re-serialized, not replayed."""
    from repro.data.dataset import MultiTableDataset

    config = RepresentationConfig(dimension=32)
    representer = EntityRepresenter(config)
    tables = [Table(t.name, t.schema, [t.row(i) for i in range(len(t))])
              for t in music_tiny.table_list()]
    dataset = MultiTableDataset("copy", {t.name: t for t in tables})
    representer.fit(dataset)
    grown = tables[0]
    grown.append(tuple("extra" for _ in grown.schema))
    embeddings = representer.encode_table(grown)
    assert embeddings.vectors.shape[0] == len(grown)
    texts = serialize_table(grown, max_tokens=config.max_sequence_length)
    assert np.array_equal(embeddings.vectors, representer.encoder.inner.encode(texts))


def test_selection_single_attribute_short_circuits(shopee_tiny):
    config = RepresentationConfig()
    result = select_attributes(shopee_tiny, EntityRepresenter(config), config)
    assert result.selected == shopee_tiny.schema
    assert result.scores == {shopee_tiny.schema[0]: 1.0}
