"""Tests for repro.config."""

import functools
from dataclasses import fields

import numpy as np
import pytest

from repro.config import (
    RETIRED_KEYS,
    MergingConfig,
    MultiEMConfig,
    ParallelConfig,
    PruningConfig,
    RepresentationConfig,
    paper_default_config,
)
from repro.exceptions import ConfigurationError, StoreError
from repro.store import codecs


def test_default_config_is_valid():
    MultiEMConfig().validate()


def test_representation_config_validation():
    with pytest.raises(ConfigurationError):
        RepresentationConfig(dimension=0).validate()
    with pytest.raises(ConfigurationError):
        RepresentationConfig(sample_ratio=0.0).validate()
    with pytest.raises(ConfigurationError):
        RepresentationConfig(sample_ratio=1.5).validate()
    with pytest.raises(ConfigurationError):
        RepresentationConfig(gamma=1.5).validate()
    with pytest.raises(ConfigurationError):
        RepresentationConfig(max_sequence_length=0).validate()


def test_merging_config_validation():
    with pytest.raises(ConfigurationError):
        MergingConfig(k=0).validate()
    with pytest.raises(ConfigurationError):
        MergingConfig(m=-0.1).validate()
    for index in ("faiss", "lsh"):
        with pytest.raises(ConfigurationError, match=f"unknown index backend '{index}'"):
            MergingConfig(index=index).validate()
    with pytest.raises(ConfigurationError):
        MergingConfig(brute_force_limit=0).validate()


def test_pruning_config_validation():
    with pytest.raises(ConfigurationError):
        PruningConfig(epsilon=0.0).validate()
    with pytest.raises(ConfigurationError):
        PruningConfig(min_pts=0).validate()


@pytest.mark.parametrize(
    "section, key, value",
    [
        # each of these used to pass validate() and then fail inside numpy or the RNG
        ("merging", "k", 1.5),
        ("merging", "hnsw_max_degree", 2.5),
        ("representation", "dimension", 32.5),
        ("representation", "seed", 1.5),
        ("merging", "seed", -1),
        ("parallel", "max_workers", 1.5),
        ("merging", "m", "0.5"),
        ("pruning", "epsilon", "1"),
        # ... and these used to run, silently (``"no"`` is truthy, so it pruned)
        ("merging", "brute_force_limit", 10.5),
        ("pruning", "min_pts", 2.5),
        ("representation", "max_sequence_length", 8.5),
        ("pruning", "enabled", "no"),
        # a bool is not a number
        ("merging", "k", True),
        ("pruning", "epsilon", False),
        ("representation", "seed", -1),
    ],
)
def test_a_value_of_the_wrong_type_or_a_negative_seed_is_refused_by_name(section, key, value):
    config = MultiEMConfig().with_overrides(**{section: {key: value}})
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key}"):
        config.validate()
    if section != "parallel":  # a manifest carries the content sections only
        meta = codecs.config_to_meta(MultiEMConfig())
        meta[section][key] = value
        with pytest.raises(StoreError, match=rf"bad\.snap: .*{section}\.{key}"):
            codecs.config_from_meta(meta, source="bad.snap")


def test_numbers_of_any_numeric_type_stay_legal():
    MultiEMConfig().with_overrides(
        representation={"dimension": np.int64(32), "seed": np.uint8(3)},
        merging={"k": np.int32(2), "m": 1, "seed": 0},
        pruning={"epsilon": np.float32(0.5), "min_pts": np.int64(2)},
        parallel={"max_workers": np.int16(2)},
    ).validate()


@pytest.mark.parametrize(
    "section, key, value, cli_flag",
    [
        ("merging", "m", float("nan"), "--m"),
        ("pruning", "epsilon", float("nan"), "--epsilon"),
        ("merging", "hnsw_max_degree", 1, None),
        ("merging", "hnsw_ef_search", 0, None),
        ("merging", "hnsw_ef_construction", 0, None),
    ],
)
def test_values_that_would_change_or_break_output_are_refused(section, key, value, cli_flag, capsys):
    """NaN thresholds used to match nothing; bad index knobs failed at the first build."""
    from repro import MultiEM
    from repro.cli import main as cli_main

    config = MultiEMConfig().with_overrides(**{section: {key: value}})
    with pytest.raises(ConfigurationError):
        config.validate()
    with pytest.raises(ConfigurationError):
        MultiEM(config)
    if cli_flag is not None:
        assert cli_main(["match", "geo", cli_flag, str(value)]) == 2
        assert "error:" in capsys.readouterr().err


def test_infinite_thresholds_stay_legal():
    MergingConfig(m=float("inf")).validate()
    PruningConfig(epsilon=float("inf")).validate()
    MergingConfig(hnsw_max_degree=2, hnsw_ef_search=1, hnsw_ef_construction=1).validate()


def test_parallel_config_validation():
    with pytest.raises(ConfigurationError):
        ParallelConfig(max_workers=0).validate()
    ParallelConfig(max_workers=2).validate()
    ParallelConfig(enabled=False, max_workers=None).validate()


def test_with_overrides_returns_new_config():
    config = MultiEMConfig()
    updated = config.with_overrides(merging={"m": 0.2}, pruning={"enabled": False})
    assert updated.merging.m == 0.2
    assert updated.pruning.enabled is False
    # Original untouched (configs are frozen dataclasses).
    assert config.merging.m != 0.2 or config.merging.m == 0.2  # no mutation possible
    assert config.pruning.enabled is True
    assert config.with_overrides(merging=updated.merging).merging is updated.merging
    bad_sections = [
        ("nonexistent", {"x": 1}),
        ("validate", {}),  # a method of the config, not a section
        ("validate", 5),
        ("merging", 5),  # a section must be a dict or that section's own class
        ("merging", updated.pruning),
    ]
    for name, value in bad_sections:
        with pytest.raises(ConfigurationError, match=rf"section '{name}'"):
            config.with_overrides(**{name: value})


def test_with_overrides_rejects_unknown_keys_by_name():
    config = MultiEMConfig()
    with pytest.raises(ConfigurationError, match=r"unknown config key merging\.bogus"):
        config.with_overrides(merging={"m": 0.2, "bogus": 1})
    assert config.with_overrides(merging={"m": 0.2}).merging.m == 0.2


@pytest.mark.parametrize(
    "section, key, runs",
    [
        ("merging", "metric", "merging distance is cosine"),
        ("pruning", "metric", "pruning distance is euclidean"),
        ("pruning", "batch_rows", "any size gave the same bytes"),
        ("merging", "kernel_threads", "sequential"),
        ("parallel", "kernel_threads", "sequential"),
        ("merging", "quantized_scan", "exact scan"),
        ("merging", "lsh_num_tables", "backend is gone"),
        ("merging", "lsh_num_bits", "backend is gone"),
        ("merging", "lsh_probe_neighbors", "LSH index backend is gone"),
        ("merging", "index_cache", "no index cache is kept"),
        ("merging", "index_cache_entries", "no index cache is kept"),
        ("merging", "shards", "merges run unsharded"),
        ("merging", "shard_key", "merges run unsharded"),
        ("parallel", "backend", "enabled=False runs serially"),
        ("parallel", "self_heal", "waited on"),
        ("parallel", "task_timeout", "waited on"),
        ("parallel", "max_retries", "waited on"),
        ("parallel", "retry_backoff", "waited on"),
        ("representation", "encoder", "only sentence encoder"),
    ],
)
def test_with_overrides_says_a_removed_key_was_removed(section, key, runs):
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key} was removed.*{runs}"):
        MultiEMConfig().with_overrides(**{section: {key: 2}})


def test_retired_keys_never_return_as_fields():
    """A retired name cannot silently come back as a live field of its section."""
    sections = {f.name for f in fields(MultiEMConfig)}
    # "session" lists retired manifest bundles, not config keys.
    assert set(RETIRED_KEYS) - sections == {"session"}
    for section in sections & set(RETIRED_KEYS):
        live = {f.name for f in fields(getattr(MultiEMConfig(), section))}
        retired = set(RETIRED_KEYS[section])
        assert not live & retired, (section, sorted(live & retired))


def test_with_overrides_refuses_the_session_entry_as_a_section():
    with pytest.raises(ConfigurationError, match="unknown config section 'session'"):
        MultiEMConfig().with_overrides(session={"cache": True})


def test_paper_default_config_known_datasets():
    for name in ["geo", "music-20", "music-200", "music-2000", "person", "shopee"]:
        config = paper_default_config(name)
        config.validate()
        assert config.merging.k == 1
        assert config.pruning.min_pts == 2
    person = paper_default_config("person")
    assert person.representation.sample_ratio == 0.05


def test_paper_default_config_unknown_dataset_uses_defaults():
    config = paper_default_config("made-up")
    config.validate()
    assert config.merging.m == 0.5


def test_paper_default_config_parallel_flag():
    assert paper_default_config("geo").parallel.enabled is True  # the default since PR 23
    assert paper_default_config("geo", parallel=False).parallel.enabled is False


#: Fields that decide only how the work runs: no flip of one moves a tuple.
EXECUTION = {"parallel.enabled": False, "parallel.max_workers": 3}

#: Fields that decide the output: ``key: (flipped value, base overrides)``.
#: Each flip changes the tuples of at least one tiny input. The bases are
#: needed because the HNSW knobs act only once HNSW runs, ``index`` and
#: ``brute_force_limit`` only once HNSW misses neighbours, and ``sample_ratio``
#: only where ``gamma`` 0.8 leaves attribute selection close.
_HNSW = {"merging.index": "hnsw"}
_WEAK_HNSW = {
    "merging.hnsw_ef_search": 1,
    "merging.hnsw_max_degree": 2,
    "merging.hnsw_ef_construction": 1,
}
CONTENT = {
    "representation.dimension": (32, {}),
    "representation.max_sequence_length": (4, {}),
    "representation.attribute_selection": (False, {}),
    "representation.gamma": (0.5, {}),
    "representation.sample_ratio": (0.05, {"representation.gamma": 0.8}),
    "representation.seed": (1, {}),
    "merging.k": (2, {}),
    "merging.m": (0.2, {}),
    "merging.index": ("hnsw", _WEAK_HNSW),
    "merging.brute_force_limit": (1, _WEAK_HNSW),
    "merging.hnsw_ef_construction": (1, _HNSW),
    "merging.hnsw_ef_search": (1, _HNSW),
    "merging.hnsw_max_degree": (2, _HNSW),
    "merging.seed": (1, {}),
    "pruning.enabled": (False, {}),
    "pruning.epsilon": (0.3, {}),
    "pruning.min_pts": (3, {}),
}


def test_every_config_field_is_content_or_execution(geo_tiny, music_tiny, shopee_tiny):
    """A snapshot persists exactly the sections whose fields can move output bytes.

    A new field fails here until it is classified: an execution field must
    leave the tuples of geo, music-20 and shopee (tiny) unchanged, and a
    content field needs a listed flip that changes some input's tuples.
    """
    from repro import MultiEM

    config = MultiEMConfig()
    every = {
        f"{section.name}.{f.name}"
        for section in fields(config)
        for f in fields(getattr(config, section.name))
    }
    assert not EXECUTION.keys() & CONTENT.keys()
    classified = EXECUTION.keys() | CONTENT.keys()
    assert every == classified, sorted(every ^ classified)
    content_sections = {key.split(".")[0] for key in CONTENT}
    assert set(codecs.config_to_meta(config)) == content_sections
    assert not content_sections & {key.split(".")[0] for key in EXECUTION}

    datasets = {"geo": geo_tiny, "music-20": music_tiny, "shopee": shopee_tiny}

    @functools.cache
    def tuples(name, overrides):
        sections: dict = {}
        for key, value in overrides:
            section, field_name = key.split(".")
            sections.setdefault(section, {})[field_name] = value
        config = paper_default_config(name).with_overrides(**sections)
        return MultiEM(config).match(datasets[name]).tuples

    def changed(key, value, base):
        base_items = tuple(sorted(base.items()))
        flipped = tuple(sorted({**base, key: value}.items()))
        return [name for name in datasets if tuples(name, base_items) != tuples(name, flipped)]

    for key, value in EXECUTION.items():
        assert changed(key, value, {}) == [], key
    for key, (value, base) in CONTENT.items():
        assert changed(key, value, base), key
