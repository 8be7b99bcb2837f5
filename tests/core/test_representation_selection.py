"""Tests for entity representation and automated attribute selection (Algorithm 1)."""

import numpy as np
import pytest

from repro.config import RepresentationConfig
from repro.core import EntityRepresenter, select_attributes
from repro.core.representation import EmbeddingStore, TableEmbeddings


class TestEntityRepresenter:
    def test_encode_table_aligns_refs_and_vectors(self, geo_tiny, representer):
        table = geo_tiny.table_list()[0]
        embeddings = representer.encode_table(table)
        assert isinstance(embeddings, TableEmbeddings)
        assert len(embeddings.refs) == len(table)
        assert embeddings.vectors.shape == (len(table), representer.config.dimension)

    def test_encode_dataset_covers_all_tables(self, geo_tiny):
        representer = EntityRepresenter(RepresentationConfig(dimension=64))
        embeddings = representer.encode_dataset(geo_tiny)
        assert set(embeddings) == set(geo_tiny.tables)
        lookup = EmbeddingStore.from_embeddings(embeddings)
        assert len(lookup) == geo_tiny.num_entities

    def test_attribute_subset_changes_embeddings(self, music_tiny):
        representer = EntityRepresenter(RepresentationConfig(dimension=64))
        full = representer.encode_dataset(music_tiny)
        title_only = representer.encode_dataset(music_tiny, ["title"])
        name = music_tiny.table_list()[0].name
        assert not np.allclose(full[name].vectors, title_only[name].vectors)

    def test_rows_are_unit_or_zero_norm(self, geo_tiny, representer):
        table = geo_tiny.table_list()[0]
        vectors = representer.encode_table(table).vectors
        norms = np.linalg.norm(vectors, axis=1)
        assert np.all((np.isclose(norms, 1.0, atol=1e-4)) | (norms == 0))

    def test_custom_encoder_injection(self, geo_tiny):
        from repro.embedding import HashedNGramEncoder

        encoder = HashedNGramEncoder(dimension=32)
        representer = EntityRepresenter(RepresentationConfig(dimension=32), encoder=encoder)
        embeddings = representer.encode_dataset(geo_tiny)
        assert next(iter(embeddings.values())).vectors.shape[1] == 32


class TestAttributeSelection:
    def test_geo_selects_name_only(self, geo_tiny):
        config = RepresentationConfig(gamma=0.9, sample_ratio=0.5, seed=0)
        representer = EntityRepresenter(config)
        selection = select_attributes(geo_tiny, representer, config)
        assert selection.selected == ("name",)
        assert selection.scores["name"] > selection.scores["longitude"]
        assert selection.scores["name"] > selection.scores["latitude"]

    def test_music_selects_textual_attributes(self, music_tiny):
        config = RepresentationConfig(gamma=0.9, sample_ratio=0.5, seed=0)
        representer = EntityRepresenter(config)
        selection = select_attributes(music_tiny, representer, config)
        assert set(selection.selected) == {"title", "artist", "album"}
        assert selection.scores["id"] < selection.scores["title"]

    def test_single_attribute_schema_short_circuits(self, shopee_tiny):
        config = RepresentationConfig()
        representer = EntityRepresenter(config)
        selection = select_attributes(shopee_tiny, representer, config)
        assert selection.selected == ("title",)

    def test_selection_never_empty_even_with_extreme_gamma(self, music_tiny):
        config = RepresentationConfig(gamma=0.0, sample_ratio=0.3, seed=0)  # threshold 1.0
        representer = EntityRepresenter(config)
        selection = select_attributes(music_tiny, representer, config)
        assert len(selection.selected) >= 1

    def test_higher_gamma_selects_more_attributes(self, music_tiny):
        # γ is a similarity threshold: an attribute is kept when shuffling it
        # drops the mean similarity to at most γ, so a higher γ admits more
        # attributes (a lower significance suffices).
        permissive = RepresentationConfig(gamma=0.95, sample_ratio=0.3)
        strict = RepresentationConfig(gamma=0.5, sample_ratio=0.3)
        permissive_selection = select_attributes(music_tiny, EntityRepresenter(permissive), permissive)
        strict_selection = select_attributes(music_tiny, EntityRepresenter(strict), strict)
        assert len(permissive_selection.selected) >= len(strict_selection.selected)

    def test_scores_cover_every_attribute(self, person_tiny):
        config = RepresentationConfig(sample_ratio=0.5)
        selection = select_attributes(person_tiny, EntityRepresenter(config), config)
        assert set(selection.scores) == set(person_tiny.schema)
        assert selection.sample_size > 0
        assert selection.elapsed_seconds >= 0

    def test_selection_is_deterministic(self, music_tiny):
        config = RepresentationConfig(sample_ratio=0.5, seed=3)
        first = select_attributes(music_tiny, EntityRepresenter(config), config)
        second = select_attributes(music_tiny, EntityRepresenter(config), config)
        assert first.selected == second.selected
        assert first.scores == pytest.approx(second.scores)

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pooled"])
    def test_an_empty_sample_scores_zero_and_keeps_the_first_attribute(self, workers):
        """All tables empty: no NaN score, no warning, the schema's first attribute."""
        import warnings

        from repro.config import ParallelConfig
        from repro.core.parallel import ParallelExecutor
        from repro.data import Table
        from repro.data.dataset import MultiTableDataset

        dataset = MultiTableDataset.from_tables(
            "empty", [Table("A", ("name", "year")), Table("B", ("name", "year"))], []
        )
        config = RepresentationConfig(gamma=1.0)  # threshold 0: every 0.0 score would pass
        parallel = ParallelConfig(enabled=workers is not None, max_workers=workers)
        with warnings.catch_warnings(), ParallelExecutor(parallel) as executor:
            warnings.simplefilter("error")
            representer = EntityRepresenter(config)
            selection = select_attributes(dataset, representer, config, executor=executor)
        assert selection.scores == {"name": 0.0, "year": 0.0}
        assert selection.selected == ("name",) and selection.sample_size == 0

    def test_pooled_scores_equal_serial_at_every_width(self, music_tiny):
        """Shuffles pooled ``workers`` at a time: the same scores and encoder counters."""
        from repro.config import ParallelConfig
        from repro.core.parallel import ParallelExecutor

        config = RepresentationConfig(sample_ratio=0.5, seed=3)
        runs = []
        for workers in (None, 1, 2, 3):
            parallel = ParallelConfig(enabled=workers is not None, max_workers=workers)
            representer = EntityRepresenter(config)
            with ParallelExecutor(parallel) as executor:
                selection = select_attributes(music_tiny, representer, config, executor=executor)
            inner = representer.encoder.inner
            counters = (inner.batch_encodes, inner.tokens_pooled)
            runs.append((selection.selected, selection.scores, counters))
        assert all(run == runs[0] for run in runs[1:])
