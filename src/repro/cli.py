"""Command-line interface for the MultiEM reproduction.

Subcommands:

* ``generate`` — write a synthetic benchmark dataset to a directory of CSVs;
* ``match``    — run MultiEM on a benchmark name or a dataset directory and
  write the predicted groups as JSON;
* ``evaluate`` — score a predictions file against a labeled dataset;
* ``report``   — regenerate one of the paper's tables (3, 4, 5, 6, 7);
* ``snapshot save`` — fit the incremental matcher and write its complete
  state as a zero-copy snapshot (:mod:`repro.store`);
* ``snapshot load`` — open a snapshot or chain tip (memory-mapped by
  default), resolve its ancestry, verify digests, and print a summary;
* ``snapshot append`` — fold one new source table into a snapshot and write
  only the changed state as an append-only chain delta next to it;
* ``snapshot compact`` — collapse a base + delta chain back into one
  self-contained snapshot file (byte-identical to a direct full save);
* ``snapshot inspect`` — dump a single file's format version, bytes per
  bundle, segment layout, alias map, chain parentage, and delta op summary;
* ``serve-match`` — restore a snapshot and fold one new source table into it
  without refitting (the load-and-serve path);
* ``serve`` — run the long-lived async match-serving service
  (:mod:`repro.serve`) over a snapshot: an asyncio HTTP front end with
  request coalescing into the batched query engine, N forked workers
  sharing the snapshot through mmap, admission control with backpressure,
  hot snapshot reload, and ``/healthz`` + ``/metrics`` endpoints.

Examples::

    python -m repro.cli generate music-20 --profile tiny --output ./music20
    python -m repro.cli match ./music20 --output predictions.json
    python -m repro.cli evaluate ./music20 predictions.json
    python -m repro.cli report table7 --datasets geo music-20 --profile tiny
    python -m repro.cli snapshot save ./music20 --exclude tableA --output fit.snap
    python -m repro.cli snapshot load fit.snap
    python -m repro.cli snapshot append fit.snap ./music20 --table tableA
    python -m repro.cli snapshot compact fit.snap.d1 --output compacted.snap
    python -m repro.cli snapshot inspect fit.snap.d1
    python -m repro.cli serve-match fit.snap ./music20 --table tableA --output preds.json
    python -m repro.cli serve fit.snap --port 8600 --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import paper_default_config
from .core import MultiEM
from .data import EntityRef, load_dataset, save_dataset
from .data.dataset import MultiTableDataset
from .data.generators import DATASET_NAMES, PROFILES, load_benchmark
from .data.io import refs_to_json
from .evaluation import evaluate_tuples, format_table
from .exceptions import ReproError


def _load_any_dataset(spec: str, profile: str, seed: int) -> MultiTableDataset:
    """Load either a registered benchmark name or a dataset directory."""
    if spec in DATASET_NAMES or spec == "product":
        return load_benchmark(spec, profile=profile, seed=seed)
    path = Path(spec)
    if path.is_dir():
        return load_dataset(path)
    raise ReproError(f"{spec!r} is neither a registered benchmark nor a dataset directory")


def _read_predictions(path: Path) -> set[frozenset[EntityRef]]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        frozenset(EntityRef(source, int(index)) for source, index in group) for group in payload
    }


# ------------------------------------------------------------------ commands
def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_benchmark(args.dataset, profile=args.profile, seed=args.seed)
    directory = save_dataset(dataset, args.output)
    print(f"wrote {dataset.num_entities} entities across {dataset.num_sources} tables to {directory}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    dataset = _load_any_dataset(args.dataset, args.profile, args.seed)
    config = paper_default_config(dataset.name, parallel=args.parallel)
    if args.m is not None:
        config = config.with_overrides(merging={"m": args.m})
    if args.epsilon is not None:
        config = config.with_overrides(pruning={"epsilon": args.epsilon})
    result = MultiEM(config).match(dataset)
    print(f"selected attributes: {', '.join(result.selected_attributes)}")
    print(f"predicted tuples:    {result.num_tuples}")
    print(f"total time:          {result.timings.total:.2f}s")
    if args.output:
        Path(args.output).write_text(json.dumps(refs_to_json(result.tuples), indent=2), encoding="utf-8")
        print(f"predictions written to {args.output}")
    if dataset.ground_truth:
        report = evaluate_tuples(result.tuples, dataset, method="MultiEM")
        print(f"tuple F1 = {report.f1:.1f}   pair-F1 = {report.pair_f1:.1f}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_any_dataset(args.dataset, args.profile, args.seed)
    predictions = _read_predictions(Path(args.predictions))
    report = evaluate_tuples(predictions, dataset, method=args.method)
    print(format_table([report.as_row()]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import (
        table3_dataset_statistics,
        table4_effectiveness,
        table5_runtime,
        table6_memory,
        table7_selected_attributes,
    )

    builders = {
        "table3": table3_dataset_statistics,
        "table4": table4_effectiveness,
        "table5": table5_runtime,
        "table6": table6_memory,
        "table7": table7_selected_attributes,
    }
    builder = builders.get(args.table)
    if builder is None:
        raise ReproError(f"unknown report {args.table!r}; choose from {sorted(builders)}")
    rows = builder(tuple(args.datasets), profile=args.profile)
    print(format_table(rows, title=f"{args.table} (profile={args.profile})"))
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    from .core.incremental import IncrementalMultiEM

    dataset = _load_any_dataset(args.dataset, args.profile, args.seed)
    if args.exclude:
        missing = sorted(set(args.exclude) - set(dataset.tables))
        if missing:
            raise ReproError(f"--exclude names unknown tables {missing}")
        keep = [name for name in sorted(dataset.tables) if name not in set(args.exclude)]
        if not keep:
            raise ReproError("--exclude removed every table; nothing to fit")
        dataset = dataset.subset(keep, name=dataset.name)
    config = paper_default_config(dataset.name, parallel=args.parallel)
    with IncrementalMultiEM(config) as matcher:
        result = matcher.fit(dataset)
        digests = matcher.save(args.output)
    size = Path(args.output).stat().st_size
    print(f"fitted {len(matcher.known_sources)} sources, {result.num_tuples} predicted tuples")
    print(f"snapshot written to {args.output} ({size} bytes)")
    print(f"item-table digest:      {digests['item_table']}")
    print(f"embedding-store digest: {digests['embedding_store']}")
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    from .store import MatchSession, SnapshotChain

    session = MatchSession.load(
        args.snapshot, mmap=not args.copy, allow_rollback=args.allow_rollback
    )
    matcher = session.matcher
    matcher._store.blocks()  # the load defers block checks to first read; run them all
    base = matcher._base
    loaded_path = base["path"] if base is not None else args.snapshot
    if Path(loaded_path).resolve() != Path(args.snapshot).resolve():
        print(f"WARNING: {args.snapshot} is damaged; rolled back to intact ancestor {loaded_path}")
    with SnapshotChain.open(loaded_path) as chain:
        depth = chain.depth
        payload = chain.total_bytes()
        num_arrays = len(chain.tip.delta["arrays"]) if depth else len(chain.tip.names())
    table = matcher.integrated_table
    mode = "copy" if args.copy else "mmap (zero-copy)"
    chain_note = "" if depth == 0 else f", chain of {depth + 1} files (depth {depth})"
    print(f"snapshot {args.snapshot}: {num_arrays} arrays, {payload} payload bytes, {mode}{chain_note}")
    print(f"sources ({len(matcher.known_sources)}): {', '.join(matcher.known_sources)}")
    print(f"integrated items: {len(table)}   schema: {', '.join(matcher._schema)}")
    # The recorded digests the load just re-derived and checked.
    print(f"item-table digest:      {session.digests['item_table']} (verified)")
    print(f"embedding-store digest: {session.digests['embedding_store']} (verified)")
    session.close()
    return 0


def _cmd_snapshot_append(args: argparse.Namespace) -> int:
    import re

    from .store import load_matcher

    dataset = _load_any_dataset(args.dataset, args.profile, args.seed)
    table = dataset.tables.get(args.table)
    if table is None:
        raise ReproError(f"dataset has no table {args.table!r}; choose from {sorted(dataset.tables)}")
    matcher = load_matcher(args.snapshot, mmap=not args.copy)
    try:
        if args.table in matcher.known_sources:
            raise ReproError(f"source {args.table!r} is already part of the snapshot")
        result = matcher.add_table(table)
        base = matcher._base
        assert base is not None  # load_matcher always records the base
        if args.output:
            output = args.output
        else:
            root = re.sub(r"\.d\d+$", "", base["path"])
            output = f"{root}.d{base['depth'] + 1}"
        digests = matcher.save(output, mode="delta")
        print(f"merged {args.table!r}; {result.num_tuples} predicted tuples over "
              f"{len(matcher.known_sources)} sources")
        print(f"delta written to {output} ({Path(output).stat().st_size} bytes, "
              f"depth {base['depth'] + 1})")
        print(f"item-table digest:      {digests['item_table']}")
        print(f"embedding-store digest: {digests['embedding_store']}")
    finally:
        matcher.close()
    return 0


def _cmd_snapshot_compact(args: argparse.Namespace) -> int:
    from .store import SnapshotChain, compact_session

    with SnapshotChain.open(args.snapshot) as chain:
        depth = chain.depth
        chain_bytes = chain.total_bytes()
    digests = compact_session(
        args.snapshot, args.output, mmap=not args.copy, retire=args.retire
    )
    size = Path(args.output).stat().st_size
    print(f"compacted chain of {depth + 1} files (depth {depth}) into {args.output}")
    print(f"chain payload {chain_bytes} bytes -> single file {size} bytes")
    print(f"item-table digest:      {digests['item_table']}")
    print(f"embedding-store digest: {digests['embedding_store']}")
    if args.retire:
        from .store.fsck import retirement_marker_path

        print(f"retirement marker written to {retirement_marker_path(args.output)}")
    if args.gc:
        from .store.fsck import gc_store

        report = gc_store(Path(args.output).resolve().parent)
        print(report.format_table())
    return 0


def _cmd_snapshot_fsck(args: argparse.Namespace) -> int:
    from .store.fsck import fsck_store

    report = fsck_store(args.directory, repair=args.repair)
    print(report.format_table())
    if report.swept:
        print(f"swept {len(report.swept)} stale partial file(s)")
    if report.quarantined:
        print(f"quarantined {len(report.quarantined)} file(s) under {args.directory}/quarantine/")
    if report.ok:
        print("store is consistent")
        return 0
    print("store has unresolved damage (re-run with --repair to quarantine)", file=sys.stderr)
    return 1


def _cmd_snapshot_gc(args: argparse.Namespace) -> int:
    from .store.fsck import gc_store

    report = gc_store(args.directory, dry_run=args.dry_run)
    print(report.format_table())
    return 0


def _bundle_bytes(snapshot) -> str:
    """``table … B, store … B, …``: this file's non-alias segment bytes per bundle.

    A segment counts under its first path component, so a delta's
    ``table/vectors#d/tail`` counts under ``table``. A bundle the manifest
    describes (a meta entry with an ``__arrays__`` list) but this file stores
    no bytes of, because a delta refs it, shows 0 B.
    """
    meta = snapshot.meta if isinstance(snapshot.meta, dict) else {}
    sizes = {
        bundle: 0
        for bundle, bundle_meta in meta.items()
        if isinstance(bundle_meta, dict) and "__arrays__" in bundle_meta
    }
    for name in snapshot.names():
        entry = snapshot.entry(name)
        if "alias_of" not in entry:
            bundle = name.split("/", 1)[0]
            sizes[bundle] = sizes.get(bundle, 0) + entry["nbytes"]
    return ", ".join(f"{bundle} {size} B" for bundle, size in sizes.items())


def _cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    from .store import Snapshot
    from .store.fsck import verify_chain

    try:
        snapshot = Snapshot.open(args.snapshot)
    except (ReproError, OSError) as exc:  # nothing to list; the verdict below says why too
        print(f"error: {exc}", file=sys.stderr)
    else:
        with snapshot:
            print(f"{args.snapshot}: format version {snapshot.format_version}")
            meta = snapshot.meta
            if isinstance(meta, dict) and meta.get("type"):
                print(f"meta type: {meta['type']}")
            if snapshot.chain is not None:
                print(f"chain: depth {snapshot.chain['depth']}, "
                      f"parent {snapshot.chain['parent']} "
                      f"(payload {snapshot.chain['parent_payload']})")
            else:
                print("chain: base snapshot (no parent)")
            aliases = snapshot.alias_map()
            print(f"segments: {len(snapshot.names())} entries, "
                  f"{snapshot.total_bytes()} payload bytes, {len(aliases)} aliased")
            print(f"bundles: {_bundle_bytes(snapshot)}")
            for name in snapshot.names():
                entry = snapshot.entry(name)
                if "alias_of" in entry:
                    print(f"  {name:<48s} alias of {entry['alias_of']}")
                else:
                    shape = "x".join(str(d) for d in entry["shape"]) or "scalar"
                    misalign = entry["offset"] % 64
                    align = "64-aligned" if misalign == 0 else f"MISALIGNED (+{misalign})"
                    print(f"  {name:<48s} {entry['dtype']:>6s} {shape:>14s} "
                          f"{entry['nbytes']:>12d} B @ {entry['offset']:<12d} {align}")
            if snapshot.delta is not None:
                ops: dict[str, int] = {}
                for spec in snapshot.delta["arrays"].values():
                    ops[spec["op"]] = ops.get(spec["op"], 0) + 1
                summary = ", ".join(f"{op}={count}" for op, count in sorted(ops.items()))
                print(f"delta ops over {len(snapshot.delta['arrays'])} logical arrays: {summary}")
    status = verify_chain(args.snapshot)[0]  # the file itself and its whole ancestry
    if not status.ok:
        print(f"verification: FAILED ({status.status})")
        print(f"  {status.detail}")
        return 1
    print("verification: ok (segments, payload digests, chain links)")
    return 0


def _cmd_serve_match(args: argparse.Namespace) -> int:
    from .store import MatchSession

    dataset = _load_any_dataset(args.dataset, args.profile, args.seed)
    table = dataset.tables.get(args.table)
    if table is None:
        raise ReproError(f"dataset has no table {args.table!r}; choose from {sorted(dataset.tables)}")
    with MatchSession.load(args.snapshot, mmap=not args.copy) as session:
        if args.table in session.known_sources:
            raise ReproError(f"source {args.table!r} is already part of the snapshot")
        result = session.matcher.add_table(table)
        print(f"merged {args.table!r} into {len(session.known_sources) - 1} restored sources")
        print(f"predicted tuples: {result.num_tuples}")
        if args.output:
            Path(args.output).write_text(
                json.dumps(refs_to_json(result.tuples), indent=2), encoding="utf-8"
            )
            print(f"predictions written to {args.output}")
        if dataset.ground_truth:
            report = evaluate_tuples(result.tuples, dataset, method="MultiEM (served)")
            print(f"tuple F1 = {report.f1:.1f}   pair-F1 = {report.pair_f1:.1f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig
    from .serve import run as serve_run

    if not Path(args.snapshot).exists():
        raise ReproError(f"snapshot {args.snapshot!r} does not exist")
    config = ServeConfig(
        snapshot_path=args.snapshot,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        deadline_ms=args.deadline_ms,
        reload_poll_s=args.reload_poll_s,
    )
    serve_run(config)
    return 0


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic benchmark to disk")
    generate.add_argument("dataset", choices=list(DATASET_NAMES) + ["product"])
    generate.add_argument("--profile", default="tiny", choices=PROFILES)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    match = sub.add_parser("match", help="run MultiEM on a benchmark or dataset directory")
    match.add_argument("dataset", help="benchmark name or dataset directory")
    match.add_argument("--profile", default="tiny", choices=PROFILES)
    match.add_argument("--seed", type=int, default=0)
    match.add_argument(
        "--parallel", action=argparse.BooleanOptionalAction, default=True,
        help="thread pool for merging and pruning (--no-parallel: the paper's serial MultiEM)",
    )
    match.add_argument("--m", type=float, default=None, help="merging distance threshold")
    match.add_argument("--epsilon", type=float, default=None, help="pruning radius")
    match.add_argument("--output", default=None, help="write predicted groups to this JSON file")
    match.set_defaults(func=_cmd_match)

    evaluate_cmd = sub.add_parser("evaluate", help="score a predictions JSON file")
    evaluate_cmd.add_argument("dataset", help="benchmark name or dataset directory")
    evaluate_cmd.add_argument("predictions", help="JSON file written by `match --output`")
    evaluate_cmd.add_argument("--profile", default="tiny", choices=PROFILES)
    evaluate_cmd.add_argument("--seed", type=int, default=0)
    evaluate_cmd.add_argument("--method", default="custom")
    evaluate_cmd.set_defaults(func=_cmd_evaluate)

    report = sub.add_parser("report", help="regenerate one of the paper's tables")
    report.add_argument("table", choices=("table3", "table4", "table5", "table6", "table7"))
    report.add_argument("--datasets", nargs="+", default=["geo", "music-20"])
    report.add_argument("--profile", default="tiny", choices=PROFILES)
    report.set_defaults(func=_cmd_report)

    snapshot = sub.add_parser("snapshot", help="save or inspect fitted pipeline snapshots")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_save = snapshot_sub.add_parser("save", help="fit a dataset and snapshot the state")
    snap_save.add_argument("dataset", help="benchmark name or dataset directory")
    snap_save.add_argument("--profile", default="tiny", choices=PROFILES)
    snap_save.add_argument("--seed", type=int, default=0)
    snap_save.add_argument("--parallel", action=argparse.BooleanOptionalAction, default=True)
    snap_save.add_argument(
        "--exclude", action="append", default=[], metavar="TABLE",
        help="leave this source table out of the fit (repeatable); "
        "fold it back later with serve-match",
    )
    snap_save.add_argument("--output", required=True, help="snapshot file to write")
    snap_save.set_defaults(func=_cmd_snapshot_save)
    snap_load = snapshot_sub.add_parser(
        "load", help="open a snapshot or chain tip and verify its digests"
    )
    snap_load.add_argument("snapshot", help="snapshot file or chain delta (ancestry is resolved)")
    snap_load.add_argument("--copy", action="store_true",
                           help="materialize arrays instead of memory-mapping them")
    snap_load.add_argument(
        "--allow-rollback", action="store_true",
        help="if the tip fails to open or verify, fall back to its deepest "
        "intact ancestor (serves older state; explicit opt-in)",
    )
    snap_load.set_defaults(func=_cmd_snapshot_load)
    snap_append = snapshot_sub.add_parser(
        "append", help="merge one new table and write only the changed state as a chain delta"
    )
    snap_append.add_argument("snapshot", help="base snapshot or chain tip to extend")
    snap_append.add_argument("dataset", help="benchmark name or dataset directory holding the new table")
    snap_append.add_argument("--table", required=True, help="name of the table to fold in")
    snap_append.add_argument("--profile", default="tiny", choices=PROFILES)
    snap_append.add_argument("--seed", type=int, default=0)
    snap_append.add_argument("--copy", action="store_true",
                             help="materialize arrays instead of memory-mapping them")
    snap_append.add_argument(
        "--output", default=None,
        help="delta file to write (default: next to the tip as <root>.d<depth+1>)",
    )
    snap_append.set_defaults(func=_cmd_snapshot_append)
    snap_compact = snapshot_sub.add_parser(
        "compact", help="collapse a base + delta chain into one self-contained snapshot"
    )
    snap_compact.add_argument("snapshot", help="chain tip (or any chain member) to compact")
    snap_compact.add_argument("--output", required=True, help="compacted snapshot file to write")
    snap_compact.add_argument("--copy", action="store_true",
                              help="materialize arrays instead of memory-mapping them")
    snap_compact.add_argument(
        "--retire", action="store_true",
        help="write a retirement marker naming the superseded chain files "
        "(authorizes a later `snapshot gc` to delete them)",
    )
    snap_compact.add_argument(
        "--gc", action="store_true",
        help="run garbage collection on the store directory right after compacting",
    )
    snap_compact.set_defaults(func=_cmd_snapshot_compact)
    snap_inspect = snapshot_sub.add_parser(
        "inspect", help="print a file's format version, segments, aliases, and chain "
        "link, then verify digests (exit 1 on any failure)"
    )
    snap_inspect.add_argument("snapshot", help="snapshot or chain delta file")
    snap_inspect.set_defaults(func=_cmd_snapshot_inspect)
    snap_fsck = snapshot_sub.add_parser(
        "fsck", help="verify every snapshot file and chain link in a store directory"
    )
    snap_fsck.add_argument("directory", help="store directory holding snapshots and chain deltas")
    snap_fsck.add_argument(
        "--repair", action="store_true",
        help="move damaged/orphaned files into quarantine/ (never deletes)",
    )
    snap_fsck.set_defaults(func=_cmd_snapshot_fsck)
    snap_gc = snapshot_sub.add_parser(
        "gc", help="delete chain files superseded by a verified compaction "
        "(driven by `compact --retire` markers)"
    )
    snap_gc.add_argument("directory", help="store directory to collect")
    snap_gc.add_argument("--dry-run", action="store_true",
                         help="report what would be deleted without deleting")
    snap_gc.set_defaults(func=_cmd_snapshot_gc)

    serve = sub.add_parser(
        "serve-match", help="restore a snapshot and merge one new table without refitting"
    )
    serve.add_argument("snapshot", help="snapshot file written by `snapshot save`")
    serve.add_argument("dataset", help="benchmark name or dataset directory holding the new table")
    serve.add_argument("--table", required=True, help="name of the table to fold in")
    serve.add_argument("--profile", default="tiny", choices=PROFILES)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--copy", action="store_true",
                       help="materialize arrays instead of memory-mapping them")
    serve.add_argument("--output", default=None, help="write predicted groups to this JSON file")
    serve.set_defaults(func=_cmd_serve_match)

    serve_http = sub.add_parser(
        "serve", help="run the async match-serving service over a snapshot "
        "(coalesced batched queries, forked mmap workers, hot reload)"
    )
    serve_http.add_argument(
        "snapshot",
        help="snapshot file, chain tip, or chain directory to serve (a "
        "directory is followed: appended deltas hot-reload the workers)",
    )
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8600,
                            help="listen port (0 picks an ephemeral port)")
    serve_http.add_argument("--workers", type=int, default=2,
                            help="forked worker processes sharing the snapshot via mmap")
    serve_http.add_argument("--max-batch", type=int, default=32,
                            help="most texts one coalesced batch carries; requests that "
                            "queue behind busy workers ride together up to this cap "
                            "(1 dispatches every request alone)")
    serve_http.add_argument("--max-inflight", type=int, default=256,
                            help="admission high-water; past it requests get a fast 503")
    serve_http.add_argument("--deadline-ms", type=float, default=30_000.0,
                            help="per-request budget; exceeded requests get a 504")
    serve_http.add_argument("--reload-poll-s", type=float, default=1.0,
                            help="snapshot-change poll interval (0 disables hot reload)")
    serve_http.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
