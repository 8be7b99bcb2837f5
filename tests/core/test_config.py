"""Tests for repro.config."""

from dataclasses import fields

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
from repro.exceptions import ConfigurationError


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
    with pytest.raises(ConfigurationError):
        PruningConfig(metric="other").validate()


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
