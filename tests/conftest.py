"""Shared fixtures for the test suite.

Fixtures build tiny, fully deterministic datasets so tests stay fast; the
session scope is safe because every object returned is treated as read-only
by the tests (pipelines copy what they need).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MultiEMConfig, RepresentationConfig
from repro.core.representation import EmbeddingStore, EntityRepresenter, TableEmbeddings
from repro.data import EntityRef, MultiTableDataset, Table
from repro.data.generators import GeneratorConfig, MusicGenerator, load_benchmark


@pytest.fixture(scope="session")
def geo_tiny() -> MultiTableDataset:
    """Tiny Geo-shaped dataset (4 sources, 3 attributes)."""
    return load_benchmark("geo", profile="tiny", seed=0)


@pytest.fixture(scope="session")
def music_tiny() -> MultiTableDataset:
    """Tiny Music-shaped dataset (5 sources, 8 attributes)."""
    return load_benchmark("music-20", profile="tiny", seed=0)


@pytest.fixture(scope="session")
def shopee_tiny() -> MultiTableDataset:
    """Tiny Shopee-shaped dataset (20 sources, 1 attribute)."""
    return load_benchmark("shopee", profile="tiny", seed=0)


@pytest.fixture(scope="session")
def person_tiny() -> MultiTableDataset:
    """Tiny Person-shaped dataset (5 sources, 4 attributes)."""
    return load_benchmark("person", profile="tiny", seed=0)


@pytest.fixture(scope="session")
def micro_music() -> MultiTableDataset:
    """Very small music dataset for slow baselines (HAC, AP)."""
    config = GeneratorConfig(num_sources=3, num_entities=40, duplicate_rate=0.7, seed=1)
    return MusicGenerator(config).generate("micro-music")


@pytest.fixture()
def handmade_dataset() -> MultiTableDataset:
    """A tiny hand-written dataset with known ground truth for exact assertions."""
    table_a = Table("A", ("title", "color"), [
        ("apple iphone 8 plus 64gb", "silver"),
        ("samsung galaxy s10 128gb", "black"),
        ("logitech mx master mouse", "graphite"),
    ])
    table_b = Table("B", ("title", "color"), [
        ("apple iphone 8 plus 5.5 64gb unlocked", "sv"),
        ("samsung galaxy s10 128 gb dual sim", "jet black"),
        ("dyson v11 vacuum cleaner", "purple"),
    ])
    table_c = Table("C", ("title", "color"), [
        ("apple iphone 8 plus 64 gb 12mp", "silver"),
        ("canon eos 2000d camera", "black"),
    ])
    truth = [
        [EntityRef("A", 0), EntityRef("B", 0), EntityRef("C", 0)],
        [EntityRef("A", 1), EntityRef("B", 1)],
    ]
    return MultiTableDataset.from_tables("handmade", [table_a, table_b, table_c], truth)


@pytest.fixture(scope="session")
def default_config() -> MultiEMConfig:
    return MultiEMConfig()


@pytest.fixture(scope="session")
def representer() -> EntityRepresenter:
    """A reusable vanilla representer (no attribute selection)."""
    return EntityRepresenter(RepresentationConfig(attribute_selection=False))


@pytest.fixture(scope="session")
def store_from_lookup():
    """Factory: the :class:`EmbeddingStore` holding a ``ref -> vector`` dict.

    Each source becomes one block of rows ``0..max index``; rows the dict does
    not name are zero and never read.
    """

    def build(lookup: dict[EntityRef, np.ndarray]) -> EmbeddingStore:
        store = EmbeddingStore()
        per_source: dict[str, dict[int, np.ndarray]] = {}
        for ref, vector in lookup.items():
            per_source.setdefault(ref.source, {})[ref.index] = vector
        for name, by_row in per_source.items():
            rows = np.zeros((max(by_row) + 1, len(next(iter(by_row.values())))), dtype=np.float32)
            for index, vector in by_row.items():
                rows[index] = vector
            refs = [EntityRef(name, i) for i in range(rows.shape[0])]
            store.add_table(TableEmbeddings(table_name=name, refs=refs, vectors=rows))
        return store

    return build


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def unit_vectors() -> np.ndarray:
    """A deterministic set of unit vectors with two obvious clusters."""
    generator = np.random.default_rng(42)
    cluster_a = generator.normal(loc=1.0, scale=0.05, size=(10, 16))
    cluster_b = generator.normal(loc=-1.0, scale=0.05, size=(10, 16))
    vectors = np.vstack([cluster_a, cluster_b]).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
