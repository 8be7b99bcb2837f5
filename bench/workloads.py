"""The four workloads: inputs from ``--seed``, set-up, sized timed sections, checks.

Each ``run_*`` returns ``(end_to_end, per_layer)``. The end-to-end metrics and
the checks are taken with tracing off on every run; the per-layer sections
(more repetitions of the cheap store calls, the single-client legs, the
pipeline replay) run only under ``--trace 1``. Sizes and the reason for each
workload are in ``bench/README.md``.
"""

from __future__ import annotations

import os
import time

import numpy as np  # run.py pins the BLAS threads before it imports this module

from harness import (
    Run,
    item_table_digest,
    median,
    peak_rss_mb,
    percentile,
    row_texts,
    timed,
    tuple_digest,
)

#: closed- and open-loop request shape, the open loop's fixed rate, and how
#: many (closed leg, open leg) rounds a run makes
QUERY_K = 2
OPEN_RATE_PER_S = 30.0
SERVE_ROUNDS = 4
WARM_UP_REQUESTS = 20
#: how many answers the cross-checks compare (compacted vs tip, HTTP vs in-process)
CHECKED_ANSWERS = 50

#: pair / tuple F1 floors at ``--seed 0 --scale full`` (a little under the
#: measured value: they catch a broken matcher, the bounds catch a drift)
F1_FLOORS = {
    "match-graph": (0.80, 0.55),
    "match-wide": (0.58, 0.02),
    "ingest-chain": (0.59, 0.03),
    "serve-query": (0.80, 0.55),
}


# -------------------------------------------------------------------- inputs
def _shopee(seed: int, sources: int, entities: int):
    from repro.data.generators import ShopeeGenerator
    from repro.data.generators.base import GeneratorConfig
    from repro.data.generators.registry import dataset_spec

    spec = dataset_spec("shopee")
    config = GeneratorConfig(
        num_sources=sources,
        num_entities=entities,
        duplicate_rate=spec.duplicate_rate,
        corruption=spec.corruption,
        seed=seed,
    )
    return ShopeeGenerator(config).generate("shopee")


def _music(seed: int, scale: str):
    from repro import load_benchmark

    return load_benchmark("music-200", "bench" if scale == "full" else "tiny", seed=seed)


def _score(run: Run, result, dataset, layer: dict) -> dict:
    from repro import evaluate

    walls: list[float] = []
    with timed(run.tracer, "evaluation", walls):
        report = evaluate(result, dataset)
    layer["evaluation.s"] = walls[0]
    pair_f1, tuple_f1 = report.pair_metrics.f1, report.tuple_metrics.f1
    if run.scale == "full" and run.seed == 0:
        pair_floor, tuple_floor = F1_FLOORS[run.workload]
        run.checks.check(
            "F1 floors",
            pair_f1 >= pair_floor and tuple_f1 >= tuple_floor,
            f"pair {pair_f1:.4f} (floor {pair_floor}), tuple {tuple_f1:.4f} (floor {tuple_floor})",
        )
    return {"pair_f1": pair_f1, "tuple_f1": tuple_f1}


def _answers_as_json(answers) -> list:
    """``query_many`` answers in the shape ``POST /query`` returns them."""
    return [
        [[[[ref.source, ref.index] for ref in members], distance] for members, distance in hits]
        for hits in answers
    ]


# ------------------------------------------------------- match-graph / -wide
def run_match(run: Run) -> tuple[dict, dict]:
    from repro import MultiEM, paper_default_config

    layer: dict = {}
    full = run.scale == "full"
    if run.workload == "match-graph":
        # The paper's configuration: HNSW for every merge.
        config = paper_default_config("music-200").with_overrides(merging={"index": "hnsw"})
        build, nominal_reps = (lambda: _music(run.seed, run.scale)), 3
    else:
        # 20 small tables: every pair merge stays under brute_force_limit.
        config = paper_default_config("shopee")
        entities = 2500 if full else 60
        build, nominal_reps = (lambda: _shopee(run.seed, 20, entities)), 8

    # Set-up is the generation alone (~1 s). It runs three times, before,
    # half-way through and after the repetitions, and the median counts:
    # three in a row land in one fast or slow stretch of the box together
    # (spread 0.49 between runs, against 0.18 when spaced out).
    setups: list[float] = []

    def set_up():
        with timed(run.tracer, "data.generate", setups):
            return build()

    dataset = set_up()
    run.facts["rows"] = rows = sum(len(table) for table in dataset.table_list())
    walls: list[float] = []
    digests: list[str] = []
    reps = run.scaled(nominal_reps, 2)
    for rep in range(reps):
        if rep == reps // 2:
            set_up()
        with timed(run.tracer, "match", walls):
            result = MultiEM(config).match(dataset)
        digests.append(tuple_digest(result.tuples))
    run.checks.ops(reps)
    run.check_digest(digests)
    set_up()
    run.facts["match_walls_s"] = [round(w, 4) for w in walls]
    wall = median(walls)

    end_to_end = {
        "setup_s": median(setups),
        "rows_per_s": rows / wall,
        "call_p50_ms": wall * 1e3,
        **_score(run, result, dataset, layer),
    }
    layer["match_wall_s"] = wall
    layer["data.generate_s"] = median(setups)
    if run.trace:
        from replay import trace_match

        layer.update(trace_match(run, dataset, config, result, wall))
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    return end_to_end, layer


# -------------------------------------------------------------- ingest-chain
def run_ingest(run: Run) -> tuple[dict, dict]:
    from repro import IncrementalMultiEM, paper_default_config
    from repro.store import MatchSession, compact_session

    layer: dict = {}
    tracer, checks = run.tracer, run.checks
    full = run.scale == "full"
    config = paper_default_config("shopee")
    base_tables = 4

    # Set-up: inputs, a matcher fitted on the first tables, its full snapshot
    # (~2 s). Done three times, spaced through the run like match's, and the
    # median counts; the chain grows from the first one.
    setups, generated, fit, save_full = [], [], [], []

    def set_up(base_path: str):
        started = time.perf_counter()
        with timed(tracer, "data.generate", generated):
            dataset = _shopee(run.seed, 20, 4000 if full else 60)
        matcher = IncrementalMultiEM(config)
        with timed(tracer, "core.incremental.fit", fit):
            matcher.fit(dataset.subset([t.name for t in dataset.table_list()[:base_tables]]))
        with timed(tracer, "store.save_full", save_full):
            matcher.save(base_path, mode="full")
        setups.append(time.perf_counter() - started)
        return dataset, matcher

    base_path = os.path.join(run.workdir, "chain-00-base.snap")
    dataset, matcher = set_up(base_path)
    tables = dataset.table_list()
    run.facts["rows"] = rows = sum(len(table) for table in tables)

    # Timed: the chain grows by one table and one delta file per step.
    adds, saves, chain_files = [], [], [base_path]
    ingest_started = time.perf_counter()
    for step, table in enumerate(tables[base_tables:], start=1):
        with timed(tracer, "core.incremental.add_table", adds):
            result = matcher.add_table(table)
        chain_files.append(os.path.join(run.workdir, f"chain-{step:02d}.snap"))
        with timed(tracer, "store.delta_save", saves):
            matcher.save(chain_files[-1], mode="delta")
    ingest_s = time.perf_counter() - ingest_started
    checks.ops(2 * len(adds))
    tip = chain_files[-1]
    added_rows = sum(len(table) for table in tables[base_tables:])
    run.check_digest([tuple_digest(result.tuples)])
    set_up(os.path.join(run.workdir, "setup-again-1.snap"))[1].close()

    # Read side of the same bytes: compact the chain, map both ends, compare
    # answers. The lookups are timed for the per-layer report only: one is a
    # 12 MB BLAKE2b and little else, which this box runs at anything between
    # 1x and 2x for 10-30 s at a time (spread of their median between runs
    # 0.29, against 0.08 for the delta saves).
    compacts: list[float] = []
    compact_path = os.path.join(run.workdir, "compact-0.snap")
    with timed(tracer, "store.compact", compacts):
        compact_session(tip, compact_path)
    load_compact: list[float] = []
    with timed(tracer, "store.load_compact", load_compact):
        session = MatchSession.load(compact_path, mmap=True)
    loads: list[float] = []
    with timed(tracer, "store.load_chain", loads):
        tip_session = MatchSession.load(tip, mmap=True)
    checks.check(
        "chain tip restores the in-memory integrated table",
        item_table_digest(tip_session.matcher.integrated_table)
        == item_table_digest(matcher.integrated_table),
    )
    texts = row_texts(dataset, result.selected_attributes, config)
    lookups = run.scaled(200, 20) if run.trace else CHECKED_ANSWERS
    sample = [texts[i] for i in np.random.default_rng(run.seed).permutation(len(texts))[:lookups]]
    first: list[float] = []
    with timed(tracer, "store.session.first_query", first):
        session.query_many([sample[0]], k=QUERY_K)
    point: list[float] = []
    answers = []
    for text in sample:
        with timed(tracer, "store.session.query", point):
            answers.append(session.query_many([text], k=QUERY_K)[0])
    checks.ops(4 + len(sample))
    checks.check(
        "compacted snapshot answers equal chain-tip answers",
        _answers_as_json(answers[:CHECKED_ANSWERS])
        == _answers_as_json(tip_session.query_many(sample[:CHECKED_ANSWERS], k=QUERY_K)),
    )
    scores = _score(run, result, dataset, layer)
    set_up(os.path.join(run.workdir, "setup-again-2.snap"))[1].close()

    end_to_end = {
        "setup_s": median(setups),
        "rows_per_s": added_rows / ingest_s,
        "call_p50_ms": median(saves) * 1e3,
        **scores,
    }
    chain_bytes = sum(os.path.getsize(path) for path in chain_files)
    cache_stats = matcher.snapshot_state()["index_cache"].stats
    layer.update({
        "data.generate_s": median(generated),
        "ingest_s": ingest_s,
        "query_point_p50_ms": median(point) * 1e3,
        "chain_bytes_per_row": chain_bytes / rows,
        "snapshot_bytes_per_row": os.path.getsize(compact_path) / rows,
        "core.incremental.fit_s": median(fit),
        "core.incremental.add_table.s": sum(adds),
        "core.incremental.add_table.max_s": max(adds),
        "store.save_full.s": median(save_full),
        "store.delta_save.s": sum(saves),
        "store.base.bytes": os.path.getsize(base_path),
        "store.delta.bytes": chain_bytes - os.path.getsize(base_path),
        "store.chain.depth": len(chain_files) - 1,
        "store.load_compact.s": load_compact[0],
        "store.session.first_query_ms": first[0] * 1e3,
        "store.session.point_p95_ms": percentile(point, 0.95) * 1e3,
        "ann.cache.exact_hits": cache_stats.exact_hits,
        "ann.cache.prefix_hits": cache_stats.prefix_hits,
        "ann.cache.misses": cache_stats.misses,
        "ann.cache.saved_rows": cache_stats.saved_rows,
    })
    if run.trace:
        layer.update(_trace_store(run, tip, session, sample, texts, point, loads, compacts))
    tip_session.close()
    session.close()
    matcher.close()
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    return end_to_end, layer


def _trace_store(run: Run, tip: str, session, sample, texts, point, loads, compacts) -> dict:
    """Per-layer sections of ``ingest-chain``: repeated store calls, one lookup taken apart."""
    from repro.ann import create_index
    from repro.ann.engine import query_rows
    from repro.core.merging import merge_index_kwargs
    from repro.store import MatchSession, compact_session

    tracer = run.tracer
    for _ in range(5):  # the first load above warmed the page cache and is not counted
        with timed(tracer, "store.load_chain", loads):
            MatchSession.load(tip, mmap=True).close()
    load_copy: list[float] = []
    with timed(tracer, "store.load_copy", load_copy):
        MatchSession.load(tip, mmap=False).close()
    for attempt in (1, 2):
        with timed(tracer, "store.compact", compacts):
            compact_session(tip, os.path.join(run.workdir, f"compact-{attempt}.snap"))

    # One lookup = encode the text + query the index + whatever query_many adds.
    matcher = session.matcher
    merging = matcher.config.merging
    vectors = matcher.integrated_table.vectors
    index = create_index(
        merging.index, merging.metric, size_hint=vectors.shape[0],
        brute_force_limit=merging.brute_force_limit, **merge_index_kwargs(merging),
    ).build(vectors)
    encoder = matcher.snapshot_state()["encoder"].inner  # under the per-text cache
    encode, search = [], []
    for text in sample:
        with timed(tracer, "embedding.encode_text", encode):
            encoded = encoder.encode([text])
        with timed(tracer, "ann.query_rows", search):
            query_rows(index, encoded, QUERY_K)

    bulk: list[float] = []
    with timed(tracer, "store.session.bulk", bulk):
        for start in range(0, len(texts), 256):
            session.query_many(texts[start:start + 256], k=QUERY_K)
    run.checks.ops(8 + 2 * len(sample) + 1)
    return {
        "load_s": median(loads[1:]),
        "store.load_copy.s": load_copy[0],
        "compact_s": median(compacts),
        "embedding.encode_text_ms": median(encode) * 1e3,
        "ann.query_rows_ms": median(search) * 1e3,
        "store.session.query_self_ms": (median(point) - median(encode) - median(search)) * 1e3,
        "query_bulk_texts_per_s": len(texts) / bulk[0],
    }


# --------------------------------------------------------------- serve-query
def _zipf_texts(texts: list[str], count: int, seed: int) -> list[str]:
    """A seeded Zipf(1.1) draw over the row texts: hot rows repeat."""
    rng = np.random.default_rng(seed)
    ranked = rng.permutation(len(texts))
    drawn: list[str] = []
    while len(drawn) < count:
        ranks = rng.zipf(1.1, size=2 * count)
        drawn.extend(texts[ranked[rank - 1]] for rank in ranks[ranks <= len(texts)])
    return drawn[:count]


def run_serve(run: Run) -> tuple[dict, dict]:
    from loadgen import Server, closed_loop, open_loop
    from repro import IncrementalMultiEM, load_benchmark, paper_default_config
    from repro.store import MatchSession

    layer: dict = {}
    tracer, checks = run.tracer, run.checks
    full = run.scale == "full"
    name = "music-200" if full else "music-20"
    config = paper_default_config(name)

    # Set-up: inputs, a fitted matcher, its snapshot, a listening server that
    # has answered its first requests (the worker builds its index on the
    # first one). At ~6 s it counts once (match's and ingest's run thrice).
    setup_started = time.perf_counter()
    generated, fit, save_full = [], [], []
    with timed(tracer, "data.generate", generated):
        dataset = load_benchmark(name, "bench" if full else "tiny", seed=run.seed)
    run.facts["rows"] = sum(len(table) for table in dataset.table_list())
    matcher = IncrementalMultiEM(config)
    with timed(tracer, "core.incremental.fit", fit):
        result = matcher.fit(dataset)
    snapshot = os.path.join(run.workdir, "serve.snap")
    with timed(tracer, "store.save_full", save_full):
        matcher.save(snapshot, mode="full")
    matcher.close()
    texts = row_texts(dataset, result.selected_attributes, config)
    with Server(snapshot) as server:
        warm = closed_loop(server.port, _zipf_texts(texts, WARM_UP_REQUESTS, run.seed + 2), QUERY_K)
        setup_s = time.perf_counter() - setup_started
        checks.ops(warm["attempted"], warm["failed"], "requests")
        run.check_digest([tuple_digest(result.tuples)])
        scores = _score(run, result, dataset, layer)

        # Four rounds of (closed-loop leg, open-loop leg): the box slows down
        # for 10-20 s at a time, and one long leg of each kind would put a
        # whole metric inside or outside such a stretch.
        closed_count = run.scaled(120, 10)
        open_count = int(OPEN_RATE_PER_S) * run.scaled(3, 1)
        drawn = _zipf_texts(texts, SERVE_ROUNDS * (closed_count + open_count), run.seed)
        closed_legs, open_legs = [], []
        for _ in range(SERVE_ROUNDS):
            leg_texts, drawn = drawn[:closed_count + open_count], drawn[closed_count + open_count:]
            with tracer.span("serve.closed_loop"):
                closed_legs.append(closed_loop(server.port, leg_texts[:closed_count], QUERY_K))
            with tracer.span("serve.open_loop"):
                open_legs.append(
                    open_loop(server.port, leg_texts[closed_count:], QUERY_K, OPEN_RATE_PER_S)
                )
            closed_legs[-1]["texts"] = leg_texts[:closed_count]
        for leg in closed_legs + open_legs:
            checks.ops(leg["attempted"], leg["failed"], "requests")
        closed_latencies = [x for leg in closed_legs for x in leg["latencies"]]
        open_latencies = [x for leg in open_legs for x in leg["latencies"]]
        open_lags = [x for leg in open_legs for x in leg["lags"]]

        # What the server said must be what the library says.
        load_compact: list[float] = []
        with timed(tracer, "store.load_compact", load_compact):
            session = MatchSession.load(snapshot, mmap=True)
        leg = closed_legs[0]
        checked = sorted(leg["replies"])[:CHECKED_ANSWERS]
        local = session.query_many([leg["texts"][i] for i in checked], k=QUERY_K)
        checks.check(
            "HTTP answers equal in-process answers",
            [leg["replies"][i]["rows"][0] for i in checked] == _answers_as_json(local),
        )
        if run.trace:
            single = _zipf_texts(texts, run.scaled(200, 20), run.seed + 1)
            layer.update(_trace_serve(run, server, session, single))
            stats = server.metrics()
            layer.update({
                "serve.mean_batch": stats["coalesced_requests"] / max(stats["batches"], 1),
                "serve.rejected": stats["rejected_queue_full"] + stats["rejected_deadline"],
                "serve.worker_retries": stats["worker_retries"],
                "serve.server_p50_ms": stats["query_latency"]["p50_ms"] or 0.0,
            })
        session.close()
        served_rss_mb = server.peak_rss_mb()

    rps = median(len(leg["latencies"]) / leg["wall_s"] for leg in closed_legs)
    end_to_end = {
        "setup_s": setup_s,
        "rows_per_s": rps,
        "call_p50_ms": median(open_latencies) * 1e3,
        "peak_rss_mb": served_rss_mb,
        **scores,
    }
    layer.update({
        "data.generate_s": generated[0],
        "core.incremental.fit_s": fit[0],
        "store.save_full.s": save_full[0],
        "store.base.bytes": os.path.getsize(snapshot),
        "store.load_compact.s": load_compact[0],
        "serve.boot_s": server.boot_s,
        "serve_rps": rps,
        "serve_p50_ms": median(open_latencies) * 1e3,
        "serve_p95_ms": percentile(open_latencies, 0.95) * 1e3,
        "serve.closed_p50_ms": median(closed_latencies) * 1e3,
        "serve.closed_p95_ms": percentile(closed_latencies, 0.95) * 1e3,
        "serve.gen_lag_p95_ms": percentile(open_lags, 0.95) * 1e3,
    })
    return end_to_end, layer


def _trace_serve(run: Run, server, session, texts: list[str]) -> dict:
    """One client, no queueing: what the HTTP plane adds to an in-process lookup."""
    from loadgen import closed_loop

    with run.tracer.span("serve.single_client"):
        single = closed_loop(server.port, texts, QUERY_K, clients=1)
    run.checks.ops(single["attempted"], single["failed"], "requests")
    local: list[float] = []
    for text in texts:
        with timed(run.tracer, "store.session.query", local):
            session.query_many([text], k=QUERY_K)
    run.checks.ops(len(texts))
    c1_p50_ms = median(single["latencies"]) * 1e3
    return {
        "serve.c1_p50_ms": c1_p50_ms,
        "serve.overhead_ms": c1_p50_ms - median(local) * 1e3,
        "query_point_p50_ms": median(local) * 1e3,
    }


WORKLOADS = {
    "match-graph": run_match,
    "match-wide": run_match,
    "ingest-chain": run_ingest,
    "serve-query": run_serve,
}
