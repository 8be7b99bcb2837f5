"""The traced pass: the match pipeline driven layer by layer from here.

``MultiEM.match`` exposes four stage timings and nothing below them. This
module calls the same public functions the pipeline calls — S, R, the seeded
level loop of ``hierarchical_merge_tables`` pair by pair, P — under spans, so
the split of merging time between index build, directed query, mutual
intersection and union-find is measured without editing ``src/repro``.
A trace of different work is worthless, so the pass must end in the tuple
set (and the hierarchy shape) of the untraced run or the run fails.
"""

from __future__ import annotations

import numpy as np

from harness import Run, item_table_digest, row_texts, tuple_digest


class _ClockedIndex:
    """A built ANN index whose ``query`` calls are recorded as ``ann.query`` spans.

    ``mutual_top_k`` offers no seam between its directed queries and its
    intersection, but it takes its indexes from the cache it is handed, and
    what the cache holds is whatever the ``build`` callable returned.
    """

    def __init__(self, index, tracer) -> None:
        self._index = index
        self._tracer = tracer

    def query(self, queries, k):
        self._tracer.count("ann.query.rows", queries.shape[0])
        with self._tracer.span("ann.query"):
            return self._index.query(queries, k)

    def clone(self) -> "_ClockedIndex":  # the cache's prefix-extend path
        return _ClockedIndex(self._index.clone(), self._tracer)

    def extend(self, vectors) -> "_ClockedIndex":
        self._index.extend(vectors)
        return self


def _replay_level_loop(run: Run, item_tables, config):
    """``hierarchical_merge_tables`` (serial, unsharded) with every pair taken apart."""
    from repro.ann import IndexCache, create_index, mutual_top_k, resolve_backend
    from repro.ann.cache import index_params_key
    from repro.core.merging import merge_index_kwargs, merge_tables_with_pairs

    tracer = run.tracer
    kwargs = merge_index_kwargs(config)
    cache = IndexCache(max_entries=config.index_cache_entries)

    def indexed(vectors) -> str:
        """Put the index over ``vectors`` into the cache; returns the backend it resolved to."""
        backend = resolve_backend(config.index, vectors.shape[0], config.brute_force_limit)

        def build():
            tracer.count("ann.build.count")
            tracer.count("ann.build.rows", vectors.shape[0])
            index = create_index(
                config.index,
                config.metric,
                size_hint=vectors.shape[0],
                brute_force_limit=config.brute_force_limit,
                **kwargs,
            ).build(vectors)
            return _ClockedIndex(index, tracer)

        with tracer.span("ann.build"):
            cache.get_or_build(
                vectors, build, params_key=index_params_key(backend, config.metric, kwargs)
            )
        return backend

    def merge_pair(left, right):
        if len(left) == 0:
            return right, 0
        if len(right) == 0:
            return left, 0
        graph = "hnsw" in (indexed(right.vectors), indexed(left.vectors))
        tracer.count("ann.backend.hnsw_merges" if graph else "ann.backend.brute_merges")
        # Both sides are cache hits now: this span's self time (its two
        # ann.query children taken out) is the mutual intersection.
        with tracer.span("ann.mutual"):
            pairs = mutual_top_k(
                left.vectors,
                right.vectors,
                k=config.k,
                max_distance=config.m,
                metric=config.metric,
                backend=config.index,
                brute_force_limit=config.brute_force_limit,
                index_kwargs=kwargs,
                cache=cache,
            )
        with tracer.span("core.merging.union"):
            merged, _ = merge_tables_with_pairs(left, right, pairs)
        return merged, len(pairs)

    rng = np.random.default_rng(config.seed)
    current = list(item_tables)
    levels, pair_merges, matched_per_level = 0, 0, []
    while len(current) > 1:
        levels += 1
        order = rng.permutation(len(current))
        with tracer.span("replay.level"):
            merged_level, matched_level = [], 0
            for i in range(0, len(order) - 1, 2):
                with tracer.span("replay.pair"):
                    merged, matched = merge_pair(current[order[i]], current[order[i + 1]])
                merged_level.append(merged)
                matched_level += matched
                pair_merges += 1
        if len(order) % 2 == 1:
            merged_level.append(current[order[-1]])
        matched_per_level.append(matched_level)
        current = merged_level
    return current[0], (levels, pair_merges, matched_per_level)


def trace_match(run: Run, dataset, config, result, untraced_median_s: float) -> dict:
    """Drive S, R, M, P under spans; return the per-layer metrics of the match pipeline."""
    from repro.ann import IndexCache
    from repro.core.attribute_selection import select_attributes
    from repro.core.merging import ItemTable, hierarchical_merge_tables
    from repro.core.pruning import prune_item_table
    from repro.core.representation import EmbeddingStore, EntityRepresenter

    tracer, checks = run.tracer, run.checks
    merging = config.merging
    if merging.shards != 1 or not merging.index_cache:
        raise SystemExit("bench: the replay mirrors the unsharded, cached level loop only")
    tables = dataset.table_list()
    representer = EntityRepresenter(config.representation)

    with tracer.span("pipeline"):
        attributes = dataset.schema
        if config.representation.attribute_selection and len(dataset.schema) > 1:
            with tracer.span("core.attribute_selection"):
                attributes = select_attributes(
                    dataset, representer, config.representation
                ).selected
        with tracer.span("core.representation"):
            representer.fit(dataset, attributes)
            embeddings = representer.encode_dataset(dataset, attributes)
            store = EmbeddingStore.from_embeddings(embeddings)
        item_tables = [ItemTable.from_embeddings(embeddings[t.name]) for t in tables]
        cache = IndexCache(max_entries=merging.index_cache_entries)
        with tracer.span("core.merging"):
            integrated, stats = hierarchical_merge_tables(item_tables, merging, cache=cache)
        with tracer.span("core.pruning"):
            pruned = prune_item_table(integrated, store, config.pruning)
        tuples = {frozenset(item.members) for item in pruned if item.size >= 2}

    with tracer.span("replay.merging"):
        replayed, shape = _replay_level_loop(run, item_tables, merging)

    # The same texts, through the two layers representation is made of.
    with tracer.span("data.serialization"):
        texts = row_texts(dataset, attributes, config)
    with tracer.span("embedding.encode"):
        representer.encoder.inner.encode(texts)

    checks.check(
        "traced pass ends in the untraced tuple set",
        tuple_digest(tuples) == tuple_digest(result.tuples),
    )
    expected_shape = (
        result.metadata["merge_levels"],
        result.metadata["merge_pair_merges"],
        list(result.metadata["matched_pairs_per_level"]),
    )
    checks.check(
        "traced hierarchy shape",
        (stats.levels, stats.pair_merges, list(stats.matched_pairs_per_level)) == expected_shape,
    )
    checks.check(
        "replayed level loop ends in the same integrated table",
        shape == expected_shape and item_table_digest(replayed) == item_table_digest(integrated),
        f"replay shape {shape}, expected {expected_shape}",
    )

    candidates = int((integrated.sizes >= 2).sum())
    counts = tracer.counts
    return {
        "core.attribute_selection.s": tracer.total("core.attribute_selection"),
        "core.representation.s": tracer.total("core.representation"),
        "data.serialization.s": tracer.total("data.serialization"),
        "embedding.encode.s": tracer.total("embedding.encode"),
        "core.merging.s": tracer.total("core.merging"),
        "core.merging.levels": stats.levels,
        "core.merging.pair_merges": stats.pair_merges,
        "core.merging.matched_pairs": sum(stats.matched_pairs_per_level),
        "ann.build.s": tracer.total("ann.build"),
        "ann.build.count": counts.get("ann.build.count", 0),
        "ann.build.rows": counts.get("ann.build.rows", 0),
        "ann.backend.hnsw_merges": counts.get("ann.backend.hnsw_merges", 0),
        "ann.backend.brute_merges": counts.get("ann.backend.brute_merges", 0),
        "ann.query.s": tracer.total("ann.query"),
        "ann.query.rows": counts.get("ann.query.rows", 0),
        "ann.mutual.s": tracer.self_times()["ann.mutual"],
        "ann.cache.exact_hits": cache.stats.exact_hits,
        "ann.cache.prefix_hits": cache.stats.prefix_hits,
        "ann.cache.misses": cache.stats.misses,
        "ann.cache.saved_rows": cache.stats.saved_rows,
        "core.merging.union.s": tracer.total("core.merging.union"),
        "core.pruning.s": tracer.total("core.pruning"),
        "core.pruning.candidates": candidates,
        "core.pruning.kept_ratio": len(tuples) / candidates if candidates else 0.0,
        "harness.trace_overhead_ratio": tracer.total("pipeline") / untraced_median_s,
    }
