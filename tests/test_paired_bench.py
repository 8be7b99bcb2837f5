"""``scripts/paired_bench.py``: result-line parsing and the gain rule, on canned runs."""

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "paired_bench.py")
END_TO_END = [
    {"name": "call_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(call_ms, rows_per_s, failed=0):
    metrics = {"call_p50_ms": {"value": call_ms, "unit": "ms"},
               "rows_per_s": {"value": rows_per_s, "unit": "rows/s"}}
    return json.dumps({"correct": not failed, "attempted": 3, "failed": failed, "metrics": metrics})


def test_the_result_is_the_last_json_line(paired):
    stdout = "== match-graph  seed 0\n  call_p50_ms  4000 ms\n" + _line(4000.0, 2.0) + "\n"
    assert paired.result_line(stdout)["metrics"]["call_p50_ms"]["value"] == 4000.0
    with pytest.raises(ValueError):
        paired.result_line("bench: traceback, no result\n")


def test_a_clear_gain_is_claimed_and_a_noisy_one_is_not(paired):
    parent = [4700.0, 4800.0, 4750.0, 4900.0, 4650.0, 4720.0, 4810.0, 4760.0, 4690.0, 4850.0]
    change = [value - 400.0 for value in parent]
    change[3] = 4950.0  # one lost pair: 9/10 still wins
    pairs = [
        (json.loads(_line(p, 11070 / p)), json.loads(_line(c, 11070 / c)))
        for p, c in zip(parent, change)
    ]
    rows = {row["metric"]: row for row in paired.summarize(pairs, END_TO_END)}
    call, rows_per_s = rows["call_p50_ms"], rows["rows_per_s"]
    assert (call["wins"], call["ties"], call["pairs"]) == (9, 0, 10)
    assert call["gain"] and rows_per_s["gain"]
    assert call["parent"][1] == pytest.approx(4755.0)
    assert call["change"][1] < call["parent"][1]


def test_every_pair_won_by_less_than_the_parent_spread_claims_nothing(paired):
    parent = [1000.0, 1500.0] * 5  # quartiles 1000 / 1250 / 1500
    pairs = [(json.loads(_line(p, 1.0)), json.loads(_line(p - 100.0, 1.0))) for p in parent]
    row = paired.summarize(pairs, END_TO_END)[0]
    assert row["wins"] == 10 and row["parent"] == (1000.0, 1250.0, 1500.0)
    assert not row["gain"]


def test_eight_wins_of_ten_claim_nothing_and_ties_count_for_neither(paired):
    parent = [1000.0 + i for i in range(10)]
    change = [value - 300.0 for value in parent]
    change[0], change[1] = parent[0], parent[1] + 50.0  # one tie, one loss
    pairs = [(json.loads(_line(p, 1.0)), json.loads(_line(c, 1.0))) for p, c in zip(parent, change)]
    row = paired.summarize(pairs, END_TO_END)[0]
    assert (row["wins"], row["ties"]) == (8, 1)
    assert not row["gain"]
    assert "call_p50_ms" in paired.format_rows([row])


PER_LAYER = [
    {"name": "store.delta_save.s", "unit": "s", "better": "lower"},
    {"name": "store.delta.bytes", "unit": "B", "better": "lower"},
]


def _traced_line(delta_save_s, delta_bytes=4.0e6):
    metrics = {"store.delta_save.s": {"value": delta_save_s, "unit": "s"},
               "store.delta.bytes": {"value": delta_bytes, "unit": "B"}}
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


def test_a_traced_side_runs_bench_with_trace_1(paired, monkeypatch):
    commands = []

    class Done:
        returncode = 0
        stdout = "== ingest-chain  seed 0\n" + _traced_line(0.5) + "\n"
        stderr = ""

    def fake_run(command, **kwargs):
        commands.append(command)
        return Done()

    monkeypatch.setattr(paired.subprocess, "run", fake_run)
    result = paired.run_side("checkout", "ingest-chain", 3, trace=True)
    paired.run_side("checkout", "ingest-chain", 3)
    assert result["metrics"]["store.delta_save.s"]["value"] == 0.5
    assert commands[0][-6:] == ["--workload", "ingest-chain", "--seed", "3", "--trace", "1"]
    assert "--trace" not in commands[1]


def test_traced_pairs_print_per_layer_quartiles_and_no_verdict(paired, tmp_path, monkeypatch,
                                                              capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END, "per_layer": PER_LAYER})
    )
    saves = {"parent": iter([0.60, 0.70, 0.50, 0.65]), "change": iter([0.30, 0.32, 0.31, 0.29])}
    traced = []

    def fake_side(checkout, workload, seed, trace=False):
        traced.append(trace)
        side = "parent" if checkout == "P" else "change"
        return json.loads(_traced_line(next(saves[side])))

    monkeypatch.setattr(paired, "run_side", fake_side)
    argv = ["--parent", "P", "--change", str(tmp_path), "--workload", "ingest-chain",
            "--pairs", "4", "--trace"]
    assert paired.main(argv) == 0
    out = capsys.readouterr().out
    assert traced == [True] * 8
    summary = out[out.index("== ingest-chain"):]
    assert "4 traced pairs" in summary
    assert "gain" not in summary and "yes" not in summary and "call_p50_ms" not in summary
    row = next(line for line in summary.splitlines() if line.startswith("store.delta_save.s"))
    # Inclusive quartiles of 0.5, 0.6, 0.65, 0.7 and of 0.29, 0.30, 0.31, 0.32.
    assert "0.575/0.625/0.6625" in row and "0.2975/0.305/0.3125" in row
    assert "store.delta.bytes" in summary
