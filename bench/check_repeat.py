"""Does the benchmark agree with itself? ``python3 bench/check_repeat.py [--seeds N]``.

Default: two legs of the whole benchmark on one checkout and one seed, the
second leg in reverse workload order. For every workload/metric pairing it
prints both values, how much worse the second is than the first, and the
metric's bound; a pairing outside its bound makes the exit code non-zero.
Metrics that are a pure function of the seed (F1, bytes per row, counts) must
agree exactly. ``--trace`` adds a traced leg pair for the per-layer metrics,
which have no bound: only their exact ones are checked.

``--seeds N``: the acceptance check a gate applies to this benchmark. N runs
per workload, each with another seed; per pairing the median and the distance
between the first and third quartile as a share of the median, which has to
stay within the bound (``setup_s`` excepted). Aim for a third of the bound.

Fix an offender by lengthening or repeating its timed section, not by
widening the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: units whose value depends on the inputs alone, never on the clock
EXACT_UNITS = {"ratio", "count", "B", "B/row"}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"check_repeat: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def check_legs(workloads: list[str], seed: int, seconds: float, trace: int) -> int:
    kind = "per_layer" if trace else "end_to_end"
    legs = [
        {name: run_once(name, seed, seconds, trace) for name in order}
        for order in (workloads, workloads[::-1])
    ]
    outside = 0
    print(f"{'workload':13s} {'metric':34s} {'leg 1':>13s} {'leg 2':>13s} {'worse by':>9s} {'bound':>7s}")
    for name in workloads:
        for metric in SPEC[kind]:
            first, second = (leg[name][metric["name"]] for leg in legs)
            if first == 0 and second == 0:
                continue  # a layer this workload never enters
            worse = abs(worsening(metric, first, second))
            bound = 0.0 if metric["unit"] in EXACT_UNITS else metric.get("bound")
            verdict = ""
            if bound is not None and worse > bound:
                outside += 1
                verdict = "  OUTSIDE"
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"{name:13s} {metric['name']:34s} {first:13.6g} {second:13.6g} "
                  f"{worse:9.4f} {shown:>7s}{verdict}")
    return outside


def check_spread(workloads: list[str], first_seed: int, count: int, seconds: float) -> int:
    outside = 0
    raw: dict[str, list] = {}
    print(f"{'workload':13s} {'metric':14s} {'median':>13s} {'IQR/median':>11s} {'bound':>7s}")
    for name in workloads:
        runs = raw[name] = [run_once(name, first_seed + i, seconds, 0) for i in range(count)]
        for metric in SPEC["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            low, _, high = statistics.quantiles(values, n=4)
            spread = (high - low) / statistics.median(values)
            verdict = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                outside += 1
                verdict = "  OUTSIDE"
            elif spread > metric["bound"] / 3:
                verdict = "  above a third of the bound"
            print(f"{name:13s} {metric['name']:14s} {statistics.median(values):13.6g} "
                  f"{spread:11.4f} {metric['bound']:7.3f}{verdict}", flush=True)
    with open(os.path.join(BENCH_DIR, "out", f"spread-seed{first_seed}.json"), "w") as handle:
        json.dump(raw, handle, indent=1)
    return outside


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--seeds", type=int, default=0, metavar="N")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or names
    if args.seeds:
        outside = check_spread(workloads, args.seed, args.seeds, args.seconds)
    else:
        outside = check_legs(workloads, args.seed, args.seconds, 0)
        if args.trace:
            outside += check_legs(workloads, args.seed, args.seconds, 1)
    print(f"{outside} pairing(s) outside their bound")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
