"""Committed ``BENCH_*.json`` records: they parse, name known metrics, and recompute.

A record is what ``scripts/paired_bench.py --record`` wrote for one paired
comparison. This test runs no benchmark: it rebuilds each record's pairs from
the raw values the record holds and asks the script's ``summarize`` for the
verdict again, so a record cannot claim a gain its own numbers do not give.
"""

from __future__ import annotations

import copy
import glob
import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "paired_bench", os.path.join(REPO, "scripts", "paired_bench.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAIRED = _load_script()

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    END_TO_END = {metric["name"]: metric for metric in json.load(_handle)["end_to_end"]}


def problems(record: dict) -> list[str]:
    """What is wrong with one record; empty when its verdict recomputes."""
    found = []
    runs = record.get("runs", [])
    if not runs or record.get("pairs") != len(runs):
        found.append(f"'pairs' is {record.get('pairs')!r} for {len(runs)} runs")
    for field in ("workload", "seed", "shas", "machine", "summary"):
        if field not in record:
            found.append(f"no {field!r}")
    names = [row["metric"] for row in record.get("summary", [])]
    for run in runs:
        if sorted(run.get("order", [])) != ["change", "parent"]:
            found.append(f"run order {run.get('order')!r}")
        for side in ("parent", "change"):
            names += [name for name in run[side]["values"] if name not in names]
    unknown = sorted({name for name in names if name not in END_TO_END})
    if unknown:
        return found + [f"metrics missing from BENCHMARK.json: {unknown}"]
    if found:
        return found
    metrics = [END_TO_END[row["metric"]] for row in record["summary"]]

    def result(values: dict) -> dict:
        return {"metrics": {name: {"value": value} for name, value in values.items()}}

    pairs = [(result(run["parent"]["values"]), result(run["change"]["values"])) for run in runs]
    recomputed = json.loads(json.dumps(PAIRED.summarize(pairs, metrics)))
    for kept, again in zip(record["summary"], recomputed):
        if kept != again:
            found.append(f"{kept['metric']}: recorded {kept}, recomputed {again}")
    return found


@pytest.mark.parametrize("path", RECORDS, ids=[os.path.basename(p) for p in RECORDS])
def test_a_committed_record_recomputes_from_its_raw_pairs(path):
    with open(path) as handle:
        record = json.load(handle)  # a record that does not parse fails here
    assert problems(record) == []


def _canned_record(tmp_path) -> dict:
    """A record written by ``paired_bench.main`` over canned runs (no benchmark runs)."""
    values = iter(range(100, 140))

    def canned(checkout, workload, seed, trace=False):
        metrics = {name: {"value": float(next(values)), "unit": m["unit"]}
                   for name, m in END_TO_END.items()}
        return {"failed": 0, "metrics": metrics}

    original = PAIRED.run_side
    PAIRED.run_side = canned
    try:
        out = tmp_path / "BENCH_canned.json"
        PAIRED.main(["--parent", str(tmp_path), "--change", REPO, "--workload", "w",
                     "--pairs", "3", "--record", str(out)])
    finally:
        PAIRED.run_side = original
    with open(out) as handle:
        return json.load(handle)


def test_a_written_record_holds_the_raw_pairs_and_recomputes(tmp_path):
    record = _canned_record(tmp_path)
    assert record["shas"]["parent"] is None  # not a git work tree
    assert [run["order"] for run in record["runs"]] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]
    ]
    assert set(record["runs"][0]["parent"]["values"]) == set(END_TO_END)
    assert record["machine"]["cpus"] == os.cpu_count()
    assert problems(record) == []


def test_a_tampered_record_is_caught(tmp_path):
    record = _canned_record(tmp_path)
    flipped = copy.deepcopy(record)
    flipped["summary"][0]["gain"] = not flipped["summary"][0]["gain"]
    assert any("recomputed" in problem for problem in problems(flipped))
    edited = copy.deepcopy(record)
    edited["runs"][1]["change"]["values"]["setup_s"] = 1e9
    assert any("setup_s" in problem for problem in problems(edited))
    unknown = copy.deepcopy(record)
    unknown["summary"][0]["metric"] = "not_a_metric"
    assert "missing from BENCHMARK.json" in problems(unknown)[-1]
