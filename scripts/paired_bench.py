#!/usr/bin/env python
"""Paired benchmark runs of two checkouts, and the gain rule over them.

``python3 scripts/paired_bench.py --parent DIR --change DIR --workload W [--pairs 10] [--seed S]
[--trace]``

Each pair runs ``python3 bench/run.py --workload W --seed S`` once in each
checkout, every run in a fresh subprocess with the checkout as its working
directory, so each side runs its own ``bench/`` on its own ``src/``. The side
that runs first alternates: the parent in pairs 0, 2, ..., the change in
pairs 1, 3, .... Every run's result line is printed as it arrives, with the
tuple digest the run wrote to its checkout's ``bench/out/result-W-*.json``
(``facts.tuple_digest``); the last line says in how many pairs parent and
change produced the same tuples.

Then, for every end-to-end metric of the change's ``BENCHMARK.json``: the
change's wins and ties (ties count for neither side), each side's median and
quartiles, and whether a gain may be claimed: the change wins at least nine
tenths of the pairs, and its median beats the parent's by more than the
distance between the parent's quartiles. Exits 1 if any run failed a check
or an operation.

With ``--record BENCH_<name>.json`` the comparison is also written down:
both checkouts' git shas (null without ``.git``), the machine's
fingerprint, every pair's run order, raw end-to-end values and tuple
digests, and the summary (quartiles, wins, verdict). ``tests/test_bench_records.py``
recomputes each committed record's verdict from its raw pairs.

With ``--trace`` every run is ``bench/run.py ... --trace 1`` instead, and the
summary covers the per-layer metrics of ``BENCHMARK.json``: each side's median
and quartiles, with no gain verdict. It shows which layer moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def result_line(stdout: str) -> dict:
    """The JSON result ``bench/run.py`` prints as its last line."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            result = json.loads(line)
            if "metrics" in result:
                return result
    raise ValueError("no result line in the benchmark output")


def run_digest(checkout: str, workload: str, trace: bool = False) -> "str | None":
    """The tuple digest in the result file a run of ``checkout`` wrote; None if unreadable."""
    kind = "per_layer" if trace else "end_to_end"
    path = os.path.join(checkout, "bench", "out", f"result-{workload}-{kind}.json")
    try:
        with open(path) as handle:
            return json.load(handle)["facts"].get("tuple_digest")
    except (OSError, ValueError, KeyError):
        return None


def run_side(checkout: str, workload: str, seed: int, trace: bool = False) -> dict:
    """One benchmark run of ``checkout`` (traced: per-layer metrics); its result line,
    with the run's tuple digest under ``"digest"``."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        command += ["--trace", "1"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        result = result_line(done.stdout)
    except ValueError:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"paired_bench: {checkout} printed no result (exit {done.returncode})")
    result["digest"] = run_digest(checkout, workload, trace)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric: wins, ties, both sides' quartiles and the gain verdict.

    ``pairs`` holds ``(parent_result, change_result)`` result lines.
    """
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gap = (p_med - c_med) if lower else (c_med - p_med)
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "gain": 10 * wins >= 9 * len(pairs) and gap > p_q3 - p_q1,
        })
    return rows


def format_rows(rows: list[dict], verdict: bool = True) -> str:
    """The summary table; ``verdict=False`` prints only each side's quartiles."""
    if not verdict:
        lines = [f"{'metric':36s} {'parent q1/med/q3':>30s}  {'change q1/med/q3':>30s}"]
        for row in rows:
            sides = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")]
            lines.append(f"{row['metric']:36s} {sides[0]:>30s}  {sides[1]:>30s}  ({row['unit']})")
        return "\n".join(lines)
    lines = [f"{'metric':14s} {'wins':>5s} {'ties':>4s}  {'parent q1/med/q3':>30s}  "
             f"{'change q1/med/q3':>30s}  gain"]
    for row in rows:
        sides = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")]
        lines.append(
            f"{row['metric']:14s} {row['wins']:>2d}/{row['pairs']:<2d} {row['ties']:>4d}  "
            f"{sides[0]:>30s}  {sides[1]:>30s}  {'yes' if row['gain'] else 'no'} ({row['unit']})"
        )
    return "\n".join(lines)


def checkout_sha(checkout: str) -> "str | None":
    """The commit ``checkout`` has out, or None when it is no git work tree."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def machine_fingerprint() -> dict:
    """What the runs' numbers depend on: CPU, core count, memory, Python, numpy."""
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(line.split(":", 1)[1].strip()
                         for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record(args, runs: list[dict], rows: list[dict]) -> dict:
    """The ``--record`` document of one paired comparison."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": len(runs),
        "shas": {"parent": checkout_sha(args.parent), "change": checkout_sha(args.change)},
        "machine": machine_fingerprint(),
        "runs": runs,
        "summary": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: per-layer quartiles, no gain verdict")
    parser.add_argument("--record", metavar="BENCH_NAME.json",
                        help="also write shas, machine, raw pairs and verdict to this file")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record keeps end-to-end comparisons only; drop --trace")
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    pairs, runs, failed = [], [], 0
    for pair in range(args.pairs):
        sides = {}
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        run = {"order": list(order)}
        for side in order:
            result = run_side(getattr(args, side), args.workload, args.seed, args.trace)
            failed += result["failed"]
            sides[side] = result
            run[side] = {"failed": result["failed"],
                         "values": {m["name"]: result["metrics"][m["name"]]["value"]
                                    for m in metrics},
                         "digest": result.get("digest")}
            values = {name: round(m["value"], 6) for name, m in result["metrics"].items()}
            print(f"pair {pair} {side:6s} failed={result['failed']} "
                  f"digest={run[side]['digest']} {json.dumps(values)}", flush=True)
        pairs.append((sides["parent"], sides["change"]))
        runs.append(run)

    kind = "traced pairs" if args.trace else "pairs"
    rows = summarize(pairs, metrics)
    print(f"== {args.workload}  seed {args.seed}  {args.pairs} {kind}  failed ops {failed}")
    print(format_rows(rows, verdict=not args.trace))
    same = sum(run["parent"]["digest"] == run["change"]["digest"] is not None for run in runs)
    print(f"tuple digests: parent and change agree in {same}/{len(runs)} pairs")
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record(args, runs, rows), handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
