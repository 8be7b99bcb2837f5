"""Design-choice ablations beyond the paper's own w/o-EER and w/o-DP rows.

Each ablation swaps one internal design choice of MultiEM and reports how
much it matters:

* mutual top-K vs one-directional top-K acceptance in two-table merging;
* mean vs medoid representative vector for merged items;
* exact brute-force vs HNSW neighbour search;
* density pruning vs no pruning vs a simple distance-to-centroid filter.

The swapped variants run the pipeline's own stages
(:func:`~repro.core.pipeline.fit_stages` and
:func:`~repro.core.pruning.prune_item_table`), so with nothing swapped the
variant predicts the tuples :class:`~repro.core.MultiEM` does (pinned by
``tests/experiments/test_experiments.py``).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..ann.mutual import create_index, top_k_pairs
from ..config import paper_default_config
from ..core.parallel import ParallelExecutor
from ..core.pipeline import fit_stages
from ..core.pruning import prune_item_table
from ..core.representation import EntityRepresenter
from ..core.result import MatchResult, StageTimings
from ..data.dataset import MultiTableDataset
from ..data.generators import load_benchmark
from ..evaluation.metrics import evaluate


def _pipeline_with(
    dataset: MultiTableDataset,
    dataset_name: str,
    *,
    index_backend: str | None = None,
    representative: str = "mean",
    pruning: str = "density",
) -> MatchResult:
    """Run a MultiEM variant with one internal design choice swapped out."""
    config = paper_default_config(dataset_name)
    if index_backend is not None:
        config = config.with_overrides(merging={"index": index_backend})
    if pruning == "none":
        config = config.with_overrides(pruning={"enabled": False})
    with ParallelExecutor(config.parallel) as executor:
        fitted = fit_stages(dataset, config, executor, representative=representative)
        integrated, store = fitted.integrated, fitted.store
        if pruning != "centroid":  # "none" disabled pruning above: candidates pass through
            pruned = prune_item_table(integrated, store, config.pruning, executor=executor)
        else:  # centroid: drop members farther than epsilon from the tuple centroid
            pruned = []
            for item in integrated.filter(integrated.sizes >= 2).to_items():
                vectors = np.stack([store[ref] for ref in item.members])
                centroid = vectors.mean(axis=0)
                distances = np.linalg.norm(vectors - centroid, axis=1)
                keep = [ref for ref, d in zip(item.members, distances) if d <= config.pruning.epsilon]
                if len(keep) >= 2:
                    pruned.append(type(item)(members=tuple(keep), vector=item.vector))
    tuples = {frozenset(item.members) for item in pruned}
    return MatchResult(tuples=tuples, method="ablation", timings=StageTimings())


def ablation_index_backend(
    dataset_names: Sequence[str] = ("geo", "music-20"),
    *,
    profile: str = "bench",
    seed: int = 0,
) -> list[dict[str, object]]:
    """Compare exact and HNSW neighbour search inside the merging stage."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        dataset = load_benchmark(name, profile=profile, seed=seed)
        for backend in ("brute-force", "hnsw"):
            started = time.perf_counter()
            result = _pipeline_with(dataset, name, index_backend=backend)
            elapsed = time.perf_counter() - started
            report = evaluate(result, dataset)
            rows.append(
                {"dataset": name, "index": backend, "F1": round(report.f1, 1),
                 "pair-F1": round(report.pair_f1, 1), "time (s)": round(elapsed, 2)}
            )
    return rows


def ablation_representative(
    dataset_names: Sequence[str] = ("geo", "music-20"),
    *,
    profile: str = "bench",
    seed: int = 0,
) -> list[dict[str, object]]:
    """Compare mean vs medoid representative vectors for merged items."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        dataset = load_benchmark(name, profile=profile, seed=seed)
        for representative in ("mean", "medoid"):
            result = _pipeline_with(dataset, name, representative=representative)
            report = evaluate(result, dataset)
            rows.append(
                {"dataset": name, "representative": representative,
                 "F1": round(report.f1, 1), "pair-F1": round(report.pair_f1, 1)}
            )
    return rows


def ablation_pruning_strategy(
    dataset_names: Sequence[str] = ("geo", "music-20"),
    *,
    profile: str = "bench",
    seed: int = 0,
) -> list[dict[str, object]]:
    """Compare density pruning vs no pruning vs centroid-distance pruning."""
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        dataset = load_benchmark(name, profile=profile, seed=seed)
        for strategy in ("density", "none", "centroid"):
            result = _pipeline_with(dataset, name, pruning=strategy)
            report = evaluate(result, dataset)
            rows.append(
                {"dataset": name, "pruning": strategy,
                 "F1": round(report.f1, 1), "pair-F1": round(report.pair_f1, 1)}
            )
    return rows


def ablation_mutual_vs_directed(
    dataset_names: Sequence[str] = ("geo", "music-20"),
    *,
    profile: str = "bench",
    seed: int = 0,
) -> list[dict[str, object]]:
    """Quantify how much the mutual-top-K constraint protects precision.

    Compares, for the first pair of tables of each dataset, the precision of
    mutual vs one-directional top-1 neighbour pairs under the dataset's
    distance threshold m.
    """
    rows: list[dict[str, object]] = []
    for name in dataset_names:
        dataset = load_benchmark(name, profile=profile, seed=seed)
        config = paper_default_config(name)
        representer = EntityRepresenter(config.representation)
        embeddings = representer.encode_dataset(dataset)
        tables = dataset.table_list()[:2]
        left, right = embeddings[tables[0].name], embeddings[tables[1].name]
        truth_pairs = dataset.truth_pairs()

        index = create_index("brute-force").build(right.vectors)
        directed = top_k_pairs(index, left.vectors, config.merging.k, config.merging.m)
        reverse_index = create_index("brute-force").build(left.vectors)
        backward = top_k_pairs(reverse_index, right.vectors, config.merging.k, config.merging.m)
        mutual = directed & {(a, b) for b, a in backward}

        def precision(pairs: set[tuple[int, int]]) -> float:
            if not pairs:
                return 0.0
            hits = 0
            for left_row, right_row in pairs:
                a, b = left.refs[left_row], right.refs[right_row]
                if (min(a, b), max(a, b)) in truth_pairs:
                    hits += 1
            return hits / len(pairs)

        rows.append(
            {
                "dataset": name,
                "directed pairs": len(directed),
                "directed precision": round(100 * precision(directed), 1),
                "mutual pairs": len(mutual),
                "mutual precision": round(100 * precision(mutual), 1),
            }
        )
    return rows
