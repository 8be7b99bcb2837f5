"""Smoke test of the benchmark at ``--scale tiny`` (collected by the plain tier-1 run).

Every workload must measure exactly the end-to-end metrics BENCHMARK.json
declares and print exactly the declared metrics of the mode it ran in, with
the declared units; the trace file must parse with every span's parent
present; and a deliberately wrong ``--expect-digest`` must make the runner
exit non-zero.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=120,
    )


def test_benchmark_spec_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_every_workload_emits_the_declared_metrics_and_a_broken_check_fails():
    # Traced runs measure the end-to-end metrics as well (and record them), so
    # one untraced run is enough to see the untraced result line.
    jobs = [(name, 1) for name in WORKLOADS] + [("serve-query", 0)]
    with ThreadPoolExecutor(max_workers=3) as pool:
        broken = pool.submit(_run, "match-wide", 0, "--expect-digest", "0" * 16)
        finished = list(pool.map(lambda job: _run(*job), jobs))

    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for (name, trace), done in zip(jobs, finished):
        assert done.returncode == 0, (name, trace, done.stdout[-1500:], done.stderr[-1500:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]} if trace else end_to_end
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared, (name, trace)
        kind = "per_layer" if trace else "end_to_end"
        with open(os.path.join(BENCH_DIR, "out", f"result-{name}-{kind}.json")) as handle:
            record = json.load(handle)
        assert set(record["end_to_end"]) == set(end_to_end), name
        assert all(value > 0 for value in record["end_to_end"].values()), (name, record)

    for name in WORKLOADS:
        with open(os.path.join(BENCH_DIR, "out", f"trace-{name}.json")) as handle:
            trace = json.load(handle)
        ids = {span["id"] for span in trace["spans"]}
        assert trace["spans"] and trace["run_id"].startswith(name)
        assert all(span["parent"] is None or span["parent"] in ids for span in trace["spans"])
        assert all(span["end"] >= span["start"] for span in trace["spans"])

    done = broken.result()
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
