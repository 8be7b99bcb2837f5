"""The repo's benchmark: ``python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
[--scale full|tiny] [--trace [0|1]] [--expect-digest HEX]``.

With ``--workload`` this process *is* the run: it pins the environment,
prepares (import, native kernel, warm-up) outside every clock, runs the
workload, prints each metric by name with its unit and, as its last line, the
JSON object the benchmark contract asks for. Without ``--workload`` it runs
every workload of BENCHMARK.json, each in a fresh subprocess. A failed check
or operation makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="fail unless the predicted tuple set has this digest")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> int:
    harness.pin_environment()
    from workloads import WORKLOADS

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    with harness.Run(args.workload, args.seed, args.seconds, SPEC["run_seconds"], args.scale,
                     bool(args.trace), args.expect_digest) as run:
        run.prepared = harness.prepare()
        end_to_end, per_layer = WORKLOADS[args.workload](run)
        per_layer["ann.native.load_s"] = run.prepared["native_load_s"]
        measured = per_layer if args.trace else end_to_end
        unknown = sorted(set(measured) - set(declared))
        if unknown:
            raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload never enters did no work: count 0, busy 0 s.
        values = {name: float(measured.get(name, 0.0)) for name in declared}
        missing = sorted(set(declared) - set(measured)) if not args.trace else []
        run.checks.check("every end-to-end metric measured", not missing, f"absent: {missing}")

        os.makedirs(harness.OUT, exist_ok=True)
        if args.trace:
            run.tracer.dump(os.path.join(harness.OUT, f"trace-{args.workload}.json"))
        checks = run.checks
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
        }
        record = {
            "workload": args.workload,
            "kind": kind,
            **result,
            "failures": checks.failures,
            # both kinds as measured; a traced run measures the end-to-end ones too
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "facts": run.facts,
            "fingerprint": harness.fingerprint(run),
        }
        with open(os.path.join(harness.OUT, f"result-{args.workload}-{kind}.json"), "w") as handle:
            json.dump(record, handle, indent=1)

    print(f"== {args.workload}  seed {args.seed}  scale {args.scale}  {kind}  {run.facts}")
    for name in declared:
        print(f"  {name:36s} {values[name]:>16.6g} {declared[name]}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(passthrough: list[str]) -> int:
    worst = 0
    for workload in SPEC["workloads"]:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload["name"], *passthrough]
        )
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.workload is None:
        return run_all(argv)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
