"""Design-choice ablations beyond the paper's own: mutual vs directed top-K,
exact vs HNSW search, mean vs medoid representatives, and density vs
no vs centroid pruning (see :mod:`repro.experiments.ablations`)."""

from repro.evaluation import format_table
from repro.experiments import (
    ablation_index_backend,
    ablation_mutual_vs_directed,
    ablation_pruning_strategy,
    ablation_representative,
)


def test_ablation_mutual_vs_directed(benchmark, bench_profile, bench_datasets):
    """Mutual top-K must not be less precise than one-directional top-K."""
    rows = benchmark(lambda: ablation_mutual_vs_directed(bench_datasets[:2], profile=bench_profile))
    print("\n" + format_table(rows, title="Ablation: mutual vs directed top-K"))
    for row in rows:
        assert row["mutual precision"] >= row["directed precision"]


def test_ablation_index_backend(benchmark, bench_profile, bench_datasets):
    """Exact and HNSW backends inside the merging stage."""
    rows = benchmark(lambda: ablation_index_backend(bench_datasets[:1], profile=bench_profile))
    print("\n" + format_table(rows, title="Ablation: ANN backend"))
    by_backend = {row["index"]: row for row in rows}
    # The graph index must stay within a reasonable band of the exact search.
    assert by_backend["hnsw"]["pair-F1"] >= by_backend["brute-force"]["pair-F1"] - 15


def test_ablation_representative_vector(benchmark, bench_profile, bench_datasets):
    """Mean vs medoid representatives for merged items."""
    rows = benchmark(lambda: ablation_representative(bench_datasets[:1], profile=bench_profile))
    print("\n" + format_table(rows, title="Ablation: merged-item representative"))
    assert {row["representative"] for row in rows} == {"mean", "medoid"}


def test_ablation_pruning_strategy(benchmark, bench_profile, bench_datasets):
    """Density pruning vs no pruning vs centroid-distance pruning."""
    rows = benchmark(lambda: ablation_pruning_strategy(bench_datasets[:1], profile=bench_profile))
    print("\n" + format_table(rows, title="Ablation: pruning strategy"))
    assert {row["pruning"] for row in rows} == {"density", "none", "centroid"}
