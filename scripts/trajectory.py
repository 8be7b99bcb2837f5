#!/usr/bin/env python
"""A metric x record table of the committed paired benchmark records.

``python3 scripts/trajectory.py [RECORD.json ...]``

Reads every ``BENCH_*.json`` at the repository root (or the named records)
and prints one row per record, in file-name order: its name, workload, seed
and both shas, then one column per end-to-end metric any record summarizes.
A cell is the parent's median, the change's median, the change's wins over
the pairs, and ``gain`` where the record's verdict claims one (``.`` where
the record has no such metric). The cells are ``scripts/paired_bench.py``'s
summary fields as recorded; ``tests/test_bench_records.py`` is what
recomputes them from the raw pairs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(paths: "list[str] | None" = None) -> "list[tuple[str, dict]]":
    """``[(name, record)]``: the named records, or every root ``BENCH_*.json``, sorted."""
    paths = sorted(paths or glob.glob(os.path.join(REPO, "BENCH_*.json")))
    records = []
    for path in paths:
        with open(path) as handle:
            name = os.path.basename(path).removeprefix("BENCH_").removesuffix(".json")
            records.append((name, json.load(handle)))
    return records


def cell(row: dict) -> str:
    """One summary row as ``parent median -> change median  wins/pairs[ gain]``."""
    parent, change = row["parent"][1], row["change"][1]
    verdict = " gain" if row["gain"] else ""
    return f"{parent:.4g} -> {change:.4g}  {row['wins']}/{row['pairs']}{verdict}"


def table(records: "list[tuple[str, dict]]") -> str:
    """The metric x record table: a header line, then one line per record."""
    metrics: dict[str, str] = {}
    for _, record in records:
        for row in record["summary"]:
            metrics.setdefault(row["metric"], row["unit"])
    lines = [["record", "workload", "seed", "parent..change"]
             + [f"{metric} ({unit})" for metric, unit in metrics.items()]]
    for name, record in records:
        summary = {row["metric"]: row for row in record["summary"]}
        shas = "..".join((record["shas"].get(side) or "-")[:7] for side in ("parent", "change"))
        lines.append([name, record["workload"], str(record["seed"]), shas]
                     + [cell(summary[metric]) if metric in summary else "." for metric in metrics])
    widths = [max(len(line[column]) for line in lines) for column in range(len(lines[0]))]
    return "\n".join(
        "  ".join(text.ljust(width) for text, width in zip(line, widths)).rstrip()
        for line in lines
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", help="record files (default: the root BENCH_*.json)")
    args = parser.parse_args(argv)
    records = load_records(args.records)
    if not records:
        print("trajectory: no BENCH_*.json records", file=sys.stderr)
        return 1
    print(table(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
