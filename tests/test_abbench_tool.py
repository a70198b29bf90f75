"""tools/abbench.py: the summary of paired benchmark runs, on canned results."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "abbench.py"

spec = importlib.util.spec_from_file_location("abbench", TOOL)
abbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abbench)

METRICS = [
    {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result(op_ms, ops, ok, setup):
    values = dict(zip(("op_ms.p50", "ops_per_s", "ok_frac", "setup_s"), (op_ms, ops, ok, setup)))
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


# five pairs: the change is faster in four, and the baseline's setup spreads
CHANGE = [result(130.0, 7.7, 1.0, 0.50), result(128.0, 7.8, 1.0, 0.50),
          result(190.0, 5.0, 1.0, 0.50), result(127.0, 7.9, 1.0, 0.50),
          result(131.0, 7.6, 1.0, 0.50)]
BASELINE = [result(184.0, 5.1, 1.0, 0.30), result(187.0, 5.0, 1.0, 0.60),
            result(183.0, 5.2, 1.0, 0.40), result(186.0, 5.1, 1.0, 0.90),
            result(185.0, 5.0, 1.0, 0.50)]


def test_summary_of_canned_pairs():
    rows = {r["metric"]: r for r in abbench.summary(CHANGE, BASELINE, METRICS)}
    op = rows["op_ms.p50"]
    assert (op["baseline"], op["change"], op["won"], op["pairs"]) == (185.0, 130.0, 4, 5)
    # quartiles of 183..187 are 184 and 186
    assert op["baseline_iqr"] == 2.0 and not op["unresolved"]
    ops = rows["ops_per_s"]
    assert (ops["baseline"], ops["change"], ops["won"]) == (5.1, 7.7, 4)
    # equal values win no pair and have no spread
    ok = rows["ok_frac"]
    assert (ok["won"], ok["baseline_iqr"], ok["unresolved"]) == (0, 0.0, False)
    # baseline setup 0.3..0.9: IQR 0.2 on a median of 0.5 exceeds the bound
    setup = rows["setup_s"]
    assert setup["baseline_iqr"] == pytest.approx(0.2) and setup["unresolved"]
    assert setup["won"] == 2


def test_formatted_rows_mark_unresolved_metrics():
    lines = abbench.format_rows(abbench.summary(CHANGE, BASELINE, METRICS))
    assert lines[0].split() == ["metric", "baseline", "change", "delta", "baseline", "IQR", "won"]
    by_name = {line.split()[0]: line for line in lines[1:]}
    assert by_name["op_ms.p50"].split()[1:4] == ["185", "130", "-29.7%"]
    assert by_name["op_ms.p50"].endswith("4/5")
    assert by_name["setup_s"].endswith("unresolved")
    assert not by_name["ok_frac"].endswith("unresolved")


def test_single_pair_and_zero_baseline():
    rows = abbench.summary([result(1.0, 1.0, 0.0, 0.1)], [result(2.0, 1.0, 0.0, 0.1)], METRICS)
    assert all(r["baseline_iqr"] == 0.0 and not r["unresolved"] for r in rows)
    assert abbench.format_rows(rows)[3].split()[3] == "+0.0%"


def test_usage_errors():
    for args in (["--against", str(ROOT), "--workload", "paper", "--seed", "1", "--pairs", "0"],
                 ["--against", str(ROOT / "src"), "--workload", "paper", "--seed", "1"],
                 ["--against", str(ROOT), "--workload", "nope", "--seed", "1"],
                 ["--against", str(ROOT), "--workload", "paper", "--seed", "1", "--trace", "2"]):
        out = subprocess.run([sys.executable, str(TOOL)] + args, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr


LAYER_METRICS = [
    {"name": "solver.line_search.self_ms_per_op", "unit": "ms", "better": "lower"},
    {"name": "solver.iterations_per_op", "unit": "count", "better": "lower"},
    {"name": "bounds.monte_carlo.draws_per_s", "unit": "1/s", "better": "higher"},
]


def traced(search_ms, iters, draws):
    values = dict(zip([m["name"] for m in LAYER_METRICS], (search_ms, iters, draws)))
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


# four pairs of traced runs: the search is faster in three, the iteration
# count does not move, the draw rate spreads widely on the baseline
TRACED_CHANGE = [traced(0.30, 5.6, 2e6), traced(0.31, 5.6, 3e6),
                 traced(0.45, 5.6, 2e6), traced(0.29, 5.6, 3e6)]
TRACED_BASELINE = [traced(0.40, 5.6, 1e6), traced(0.42, 5.6, 4e6),
                   traced(0.41, 5.6, 1e6), traced(0.43, 5.6, 4e6)]


def test_per_layer_summary_of_canned_pairs():
    rows = {r["metric"]: r for r in abbench.summary(TRACED_CHANGE, TRACED_BASELINE, LAYER_METRICS)}
    search = rows["solver.line_search.self_ms_per_op"]
    assert (search["baseline"], search["change"], search["won"]) == (0.415, 0.305, 3)
    # quartiles of 0.40..0.43 are 0.4075 and 0.4225
    assert search["baseline_iqr"] == pytest.approx(0.015)
    iters = rows["solver.iterations_per_op"]
    assert (iters["baseline"], iters["change"], iters["won"]) == (5.6, 5.6, 0)
    assert iters["baseline_iqr"] == 0.0
    draws = rows["bounds.monte_carlo.draws_per_s"]
    assert (draws["baseline"], draws["change"], draws["won"]) == (2.5e6, 2.5e6, 2)
    # per-layer metrics have no bound, so even a spread of 120% is not marked
    assert draws["baseline_iqr_rel"] > 1.0
    assert not any(r["unresolved"] for r in rows.values())

    lines = abbench.format_rows(list(rows.values()))
    # the long names widen the metric column, and the columns stay aligned
    assert len({len(line) for line in lines}) == 1
    by_name = {line.split()[0]: line.split() for line in lines[1:]}
    assert by_name["solver.line_search.self_ms_per_op"][1:4] == ["0.415", "0.305", "-26.5%"]
    assert by_name["solver.iterations_per_op"][-1] == "0/4"


def test_trace_option_summarises_traced_runs(monkeypatch, capsys):
    names = [m["name"] for m in abbench.load_spec()["per_layer"]]
    runs = []

    def fake_run(root, command, workload, seed, seconds, trace=0):
        runs.append((root, trace))
        return {"correct": True, "failed": 0,
                "metrics": {n: {"value": 1.0, "unit": "-"} for n in names}}

    monkeypatch.setattr(abbench, "run_once", fake_run)
    args = ["--against", str(ROOT), "--workload", "paper", "--seed", "1", "--pairs", "2"]
    assert abbench.main(args + ["--trace", "1"]) == 0
    assert [trace for _, trace in runs] == [1, 1, 1, 1]
    table = capsys.readouterr().out.splitlines()[-len(names):]
    assert [line.split()[0] for line in table] == names
