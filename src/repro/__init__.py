"""repro — reproduction of "MultiEM: Efficient and Effective Unsupervised
Multi-Table Entity Matching" (ICDE 2024).

Public API highlights:

* :class:`repro.MultiEM` — the unsupervised multi-table matcher.
* :func:`repro.load_benchmark` — synthetic stand-ins for the paper's datasets.
* :func:`repro.evaluate` — tuple-F1 / pair-F1 evaluation against ground truth.
* :mod:`repro.baselines` — pairwise/chain extensions, AutoFJ, MSCD-HAC/AP,
  supervised pair classifiers, ALMSER-GB stand-in.
* :mod:`repro.experiments` — regenerate every table and figure of the paper.

ANN backends
------------
The merging stage's mutual top-K searches run on a pluggable ANN layer
(:mod:`repro.ann`). ``MergingConfig.index`` selects the backend: ``"auto"``
(exact brute force up to ``brute_force_limit`` rows, HNSW beyond),
``"brute-force"`` or ``"hnsw"`` (knobs: ``hnsw_max_degree``,
``hnsw_ef_construction``, ``hnsw_ef_search``). Both backends fill the same
top-K outputs (:mod:`repro.ann.engine`); with a C toolchain present the
HNSW traversals run through a runtime-compiled native kernel that is
byte-identical to the numpy paths (``REPRO_NATIVE=0`` forces the fallback,
``REPRO_NATIVE=require`` hard-fails when the kernel cannot load). Every
merge builds the indexes it queries; nothing is cached across merges.
By default every merge level and the pruning pass fan out on one persistent
thread pool (the heavy kernels release the GIL; ``ParallelConfig.enabled =
False`` is the paper's serial variant, byte-identical output either way).
``python -m pytest benchmarks -q -m smoke`` exercises this layer at tiny
scale; ``python3 bench/run.py`` measures it at benchmark scale.

Persistence and serving
-----------------------
:mod:`repro.store` snapshots what a fitted matcher computes with —
integrated ``ItemTable``, embedding store, the fitted encoder — into one
versioned, memory-mappable file: ``load(mmap=True)`` restores zero-copy and
byte-identical. ANN indexes are not persisted; a restored matcher rebuilds
the one it needs. :class:`repro.store.MatchSession`
serves ``matcher.add_table`` / nearest-tuple queries from a snapshot without
refitting (CLI: ``snapshot save|load``, ``serve-match``).
"""

from .config import (
    MergingConfig,
    MultiEMConfig,
    ParallelConfig,
    PruningConfig,
    RepresentationConfig,
    paper_default_config,
)
from .core import IncrementalMultiEM, MatchResult, MultiEM
from .data import Entity, EntityRef, MultiTableDataset, Table
from .data.generators import available_datasets, load_benchmark
from .evaluation import EvaluationReport, evaluate
from .exceptions import (
    BaselineUnsupportedError,
    ConfigurationError,
    DataError,
    EvaluationError,
    ReproError,
    SchemaError,
)

__version__ = "1.0.0"

__all__ = [
    "MultiEM",
    "IncrementalMultiEM",
    "MatchResult",
    "MultiEMConfig",
    "RepresentationConfig",
    "MergingConfig",
    "PruningConfig",
    "ParallelConfig",
    "paper_default_config",
    "Entity",
    "EntityRef",
    "Table",
    "MultiTableDataset",
    "load_benchmark",
    "available_datasets",
    "evaluate",
    "EvaluationReport",
    "ReproError",
    "ConfigurationError",
    "SchemaError",
    "DataError",
    "EvaluationError",
    "BaselineUnsupportedError",
    "__version__",
]
