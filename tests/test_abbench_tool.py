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
                 ["--against", str(ROOT), "--workload", "nope", "--seed", "1"]):
        out = subprocess.run([sys.executable, str(TOOL)] + args, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
