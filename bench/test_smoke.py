"""Smoke test of the benchmark: every workload, untraced and traced, briefly.

Run with ``python3 -m pytest -q bench/test_smoke.py`` from the repository
root; it takes about a minute.
"""
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_outputs_pass(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_spans_nest_within_their_operation():
    proc = run(ROOT, "paper", 1)
    env = json.loads(proc.stdout.splitlines()[-2].removeprefix("env "))
    with open(ROOT / env["spans_file"], newline="") as fh:
        spans = list(csv.DictReader(fh))
    assert len(spans) == env["spans"]
    roots = [s for s in spans if s["parent"] == "-1" and s["op"] != "-1"]
    assert len(roots) == env["traced_ops"] and {s["name"] for s in roots} == {"solver.solve"}
    for s in spans:
        assert float(s["start_s"]) <= float(s["end_s"])
        if s["parent"] != "-1":
            parent = spans[int(s["parent"])]
            assert parent["op"] == s["op"]
            assert float(parent["start_s"]) <= float(s["start_s"])
            assert float(s["end_s"]) <= float(parent["end_s"])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "paper", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
