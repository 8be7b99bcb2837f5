"""``scripts/trajectory.py`` over the committed ``BENCH_*.json`` records.

It runs no benchmark: each committed record must come out as one row, and
each metric its summary holds as a column whose cell shows that record's
medians, wins and verdict.
"""

from __future__ import annotations

import glob
import importlib.util
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "trajectory.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRAJECTORY = _load_script()


def test_every_committed_record_is_a_row_with_its_medians_and_verdicts():
    done = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, cwd=REPO)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    records = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))
    names = [os.path.basename(p).removeprefix("BENCH_").removesuffix(".json") for p in records]
    assert [row.split()[0] for row in rows] == names, "one row per record, in file-name order"
    for path, row in zip(records, rows):
        with open(path) as handle:
            record = json.load(handle)
        for summary in record["summary"]:
            assert f"{summary['metric']} ({summary['unit']})" in header
            assert TRAJECTORY.cell(summary) in row, (path, summary["metric"])


def test_a_metric_one_record_lacks_shows_a_dot(tmp_path):
    path = sorted(glob.glob(os.path.join(REPO, "BENCH_*.json")))[0]
    with open(path) as handle:
        record = json.load(handle)
    partial = dict(record, summary=record["summary"][:1])
    (tmp_path / "BENCH_a.json").write_text(json.dumps(record))
    (tmp_path / "BENCH_b.json").write_text(json.dumps(partial))
    text = TRAJECTORY.table(TRAJECTORY.load_records(sorted(map(str, tmp_path.iterdir()))))
    _, full, lacking = text.splitlines()
    assert all(TRAJECTORY.cell(row) in full for row in record["summary"])
    assert TRAJECTORY.cell(record["summary"][0]) in lacking and lacking.endswith(".")
