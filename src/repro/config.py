"""Configuration objects for the MultiEM pipeline.

The defaults mirror the paper's implementation details (Section IV-A):
``k = 1``, ``MinPts = 2``, sampling ratio ``r = 0.2`` (``0.05`` for very large
datasets), ``epsilon`` from ``{0.8, 1.0}``, ``m`` from
``{0.05, 0.2, 0.35, 0.5}``, ``gamma`` from ``{0.8, 0.9}``, cosine distance for
merging and euclidean distance for pruning.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, ClassVar, Mapping

from .exceptions import ConfigurationError

#: Hyper-parameter grids used by the paper's grid search (Section IV-A).
PAPER_M_GRID = (0.05, 0.2, 0.35, 0.5)
PAPER_EPSILON_GRID = (0.8, 1.0)
PAPER_GAMMA_GRID = (0.8, 0.9)

#: Re-calibrated grids for the hashed-n-gram encoder used in this repo.
#: Sentence-BERT places textual variants of one entity at cosine distance
#: ~0.05-0.2; the from-scratch encoder places them at ~0.2-0.6, so the same
#: sweep shape is explored at a shifted scale (see EXPERIMENTS.md).
REPRO_M_GRID = (0.35, 0.5, 0.65, 0.8)
REPRO_EPSILON_GRID = (0.8, 1.0, 1.2, 1.4)
REPRO_GAMMA_GRID = (0.8, 0.85, 0.9, 0.95)

#: Removed config keys, per section, with what runs in their place. Snapshots
#: that carry one still load (``repro.store.codecs.drop_retired`` drops it
#: with a warning), while ``with_overrides`` refuses it by name. Dropping a
#: retired key never changes what a loaded snapshot computes. A key whose
#: other values changed result bytes maps to ``(reason, the one value that
#: still loads)``, and ``drop_retired`` refuses any other value by name
#: (``merging.metric``, ``pruning.metric``); ``representation.encoder``
#: naming the removed TF-IDF+SVD encoder is refused by its own encoder bundle.
#: The ``"session"`` entry lists manifest bundles rather than config keys; it
#: is not a config section, so ``with_overrides`` never consults it.
RETIRED_KEYS: dict[str, dict[str, str | tuple[str, Any]]] = {
    "representation": {
        "encoder": "HashedNGramEncoder is the only sentence encoder",
    },
    "merging": {
        "metric": ("merging distance is cosine; euclidean is pruning's", "cosine"),
        "kernel_threads": "the native HNSW build is sequential",
        "quantized_scan": "the brute-force backend always runs the exact scan",
        "lsh_num_tables": "the LSH index backend is gone",
        "lsh_num_bits": "the LSH index backend is gone",
        "lsh_probe_neighbors": "the LSH index backend is gone",
        "index_cache": "merges build their indexes; no index cache is kept",
        "index_cache_entries": "merges build their indexes; no index cache is kept",
        "shards": "merges run unsharded on the table-wise pool; sharded output was identical",
        "shard_key": "merges run unsharded on the table-wise pool; sharded output was identical",
    },
    "pruning": {
        "metric": ("pruning distance is euclidean; cosine is merging's", "euclidean"),
        "batch_rows": "pruning blocks hold core.pruning.BATCH_ROWS rows; any size gave the same bytes",
    },
    "parallel": {
        "kernel_threads": "the native HNSW build is sequential",
        "shared_memory": "tasks run on one persistent thread pool",
        "reuse_pool": "tasks run on one persistent thread pool",
        "backend": "tasks run on one persistent thread pool; enabled=False runs serially",
        "self_heal": "every task is waited on; the first task exception propagates",
        "task_timeout": "every task is waited on; the first task exception propagates",
        "max_retries": "every task is waited on; the first task exception propagates",
        "retry_backoff": "every task is waited on; the first task exception propagates",
    },
    "session": {
        "cache": "indexes are not persisted; a restored matcher builds the one it needs",
        "shard": "merges run unsharded; the shard owners changed no result byte",
    },
}


_KINDS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}


def _check_types(config, section: str) -> None:
    """Refuse, naming ``section.key``, a field value that is not of its annotated type.

    A ``bool`` is not a number here, and ``X | None`` also takes ``None``: a
    bad value fails here rather than deep inside numpy or the RNG.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _KINDS[kind]):
            raise ConfigurationError(
                f"{section}.{f.name} must be {f.type}, not {type(value).__name__} {value!r}"
            )


@dataclass(frozen=True)
class RepresentationConfig:
    """Settings for the enhanced entity representation stage.

    Attributes:
        dimension: embedding dimensionality (the paper's MiniLM is 384-d).
        max_sequence_length: maximum number of tokens kept per serialized
            entity (paper: 64).
        attribute_selection: whether to run Algorithm 1 (the EER module);
            turning this off gives the "w/o EER" ablation.
        gamma: significance threshold γ for attribute selection.
        sample_ratio: row sampling ratio r used when scoring attributes.
        seed: RNG seed for sampling and shuffling inside Algorithm 1, and
            the sentence encoder's hashing seed.
    """

    dimension: int = 384
    max_sequence_length: int = 64
    attribute_selection: bool = True
    gamma: float = 0.9
    sample_ratio: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        _check_types(self, "representation")
        if self.dimension <= 0:
            raise ConfigurationError("embedding dimension must be positive")
        if not 0 < self.sample_ratio <= 1:
            raise ConfigurationError("sample_ratio must be in (0, 1]")
        if self.max_sequence_length <= 0:
            raise ConfigurationError("max_sequence_length must be positive")
        if not 0 <= self.gamma <= 1:
            raise ConfigurationError("gamma must be in [0, 1]")
        if self.seed < 0:
            raise ConfigurationError("representation.seed must be >= 0")


@dataclass(frozen=True)
class MergingConfig:
    """Settings for table-wise hierarchical merging (Algorithms 2-3).

    Attributes:
        k: mutual top-K neighbourhood size (paper: 1).
        m: cosine-distance threshold for accepting a neighbour pair.
        index: ANN backend — ``"auto"`` picks brute force below
            ``brute_force_limit`` rows and HNSW above; ``"hnsw"`` or
            ``"brute-force"`` force a backend.
        brute_force_limit: table size under which exact search is used in
            ``"auto"`` mode.
        hnsw_ef_construction / hnsw_ef_search / hnsw_max_degree: HNSW knobs.
        seed: seed controlling the random pairing of tables at each hierarchy
            level (Figure 6(b) studies sensitivity to this order).
    """

    k: int = 1
    m: float = 0.5
    index: str = "auto"
    brute_force_limit: int = 4096
    hnsw_ef_construction: int = 100
    hnsw_ef_search: int = 64
    hnsw_max_degree: int = 16
    seed: int = 0
    metric: ClassVar[str] = "cosine"  # bench compat: item 1 deletes
    shards: ClassVar[int] = 1  # bench compat: item 1 deletes
    index_cache: ClassVar[bool] = True  # bench compat: item 1 deletes
    index_cache_entries: ClassVar[int] = 8  # bench compat: item 1 deletes

    def validate(self) -> None:
        _check_types(self, "merging")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if not self.m >= 0:  # also rejects NaN; inf is legal
            raise ConfigurationError("m must be a non-negative number")
        if self.index not in ("auto", "hnsw", "brute-force"):
            raise ConfigurationError(f"unknown index backend {self.index!r}")
        if self.brute_force_limit < 1:
            raise ConfigurationError("brute_force_limit must be >= 1")
        if self.hnsw_max_degree < 2:
            raise ConfigurationError("hnsw_max_degree must be >= 2")
        if self.hnsw_ef_construction < 1 or self.hnsw_ef_search < 1:
            raise ConfigurationError("hnsw_ef_construction and hnsw_ef_search must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("merging.seed must be >= 0")


@dataclass(frozen=True)
class PruningConfig:
    """Settings for density-based pruning (Algorithm 4), on euclidean distance.

    Attributes:
        enabled: turning this off gives the "w/o DP" ablation.
        epsilon: neighbourhood radius ε (euclidean, paper grid {0.8, 1.0}).
        min_pts: MinPts, the neighbour count needed to be a core entity.

    When pruning is a no-op: embeddings are unit-norm, so
    ``‖a − b‖ = √(2 · d_cos(a, b))`` and a pair merged at cosine distance
    ≤ ``m`` lies within euclidean distance ``√(2m)``. With ``min_pts = 2``
    (self included) both members of a two-member tuple are then core for any
    ``epsilon ≥ √(2m)``, so pruning cannot touch such a tuple
    (``tests/core/test_pruning.py`` pins this on three generators).
    """

    enabled: bool = True
    epsilon: float = 1.0
    min_pts: int = 2

    def validate(self) -> None:
        _check_types(self, "pruning")
        if not self.epsilon > 0:  # also rejects NaN; inf is legal
            raise ConfigurationError("epsilon must be a positive number")
        if self.min_pts < 1:
            raise ConfigurationError("min_pts must be >= 1")


@dataclass(frozen=True)
class ParallelConfig:
    """Settings for the worker pool behind merging and pruning.

    Attributes:
        enabled: run merging and pruning on one persistent thread pool per
            :class:`~repro.core.parallel.ParallelExecutor` (the default; the
            heavy lifting is released-GIL numpy and native-kernel work, and
            output bytes are identical either way). ``False`` is the paper's
            serial MultiEM.
        max_workers: pool size (``None``: the usable CPU count, see
            :attr:`repro.core.parallel.ParallelExecutor.workers`).
    """

    enabled: bool = True
    max_workers: int | None = None

    def validate(self) -> None:
        _check_types(self, "parallel")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")


@dataclass(frozen=True)
class MultiEMConfig:
    """Complete configuration for a :class:`repro.core.pipeline.MultiEM` run.

    Only ``parallel`` leaves the output bytes alone; snapshots persist the rest.
    """

    representation: RepresentationConfig = field(default_factory=RepresentationConfig)
    merging: MergingConfig = field(default_factory=MergingConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)

    def validate(self) -> None:
        self.representation.validate()
        self.merging.validate()
        self.pruning.validate()
        self.parallel.validate()

    def with_overrides(self, **overrides: Mapping[str, Any]) -> "MultiEMConfig":
        """Return a copy with per-section overrides.

        Example:
            >>> cfg = MultiEMConfig().with_overrides(merging={"m": 0.2})
            >>> cfg.merging.m
            0.2
        """
        sections: dict[str, Any] = {}
        section_names = {f.name for f in fields(self)}
        for name, value in overrides.items():
            if name not in section_names:
                raise ConfigurationError(f"unknown config section {name!r}")
            current = getattr(self, name)
            if isinstance(value, dict):
                known = {f.name for f in fields(current)}
                for key in value:
                    removed = RETIRED_KEYS.get(name, {}).get(key)
                    if removed:
                        reason = removed if isinstance(removed, str) else removed[0]
                        raise ConfigurationError(f"config key {name}.{key} was removed: {reason}")
                    if key not in known:
                        raise ConfigurationError(f"unknown config key {name}.{key}")
                sections[name] = replace(current, **value)
            elif isinstance(value, type(current)):
                sections[name] = value
            else:
                raise ConfigurationError(
                    f"config section {name!r} takes a dict or a {type(current).__name__},"
                    f" not {type(value).__name__}"
                )
        return replace(self, **sections)


def paper_default_config(dataset_name: str | None = None, *, parallel: bool = True) -> MultiEMConfig:
    """Return the configuration the paper reports for a given dataset.

    The paper tunes ``m``, ``epsilon`` and ``gamma`` by grid search per
    dataset; this helper returns sensible per-dataset picks used by the
    experiment harness. Unknown dataset names get the global defaults.
    """
    per_dataset: dict[str, dict[str, float]] = {
        "geo": {"m": 0.5, "epsilon": 1.0, "gamma": 0.9, "sample_ratio": 0.2},
        "music-20": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "music-200": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "music-2000": {"m": 0.5, "epsilon": 1.2, "gamma": 0.9, "sample_ratio": 0.2},
        "person": {"m": 0.65, "epsilon": 1.2, "gamma": 0.8, "sample_ratio": 0.05},
        "shopee": {"m": 0.35, "epsilon": 0.8, "gamma": 0.9, "sample_ratio": 0.2},
        "product": {"m": 0.5, "epsilon": 1.0, "gamma": 0.9, "sample_ratio": 0.2},
    }
    params = per_dataset.get(dataset_name or "", {})
    config = MultiEMConfig(
        representation=RepresentationConfig(
            gamma=float(params.get("gamma", 0.9)),
            sample_ratio=float(params.get("sample_ratio", 0.2)),
        ),
        merging=MergingConfig(m=float(params.get("m", 0.5))),
        pruning=PruningConfig(epsilon=float(params.get("epsilon", 1.0))),
        parallel=ParallelConfig(enabled=parallel),
    )
    config.validate()
    return config
