"""tools/searchbench.py: the comparison of two replays, and a replay of a checkout against itself."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "searchbench.py"

spec = importlib.util.spec_from_file_location("searchbench", TOOL)
searchbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(searchbench)

# (item, x, d_x, s, gamma, full_step_first) with the fields the comparison reads
SEARCHES = [(0, None, None, 5, 0.6, True), (0, None, None, 5, 0.6, False),
            (1, None, None, 5, 0.6, False)]
# ((t, alpha, stalled), G calls, seconds): a full step by G, an accepted
# step and a stall
THERE = [((0, 1.0, False), 1, 2e-5), ((3, 0.614125, False), 2, 8e-5), ((50, 0.0, True), 0, 9e-5)]


def test_equal_decisions_and_fewer_G_calls_pass():
    here = [((0, 1.0, False), 1, 1e-5), ((3, 0.614125, False), 0, 4e-5),
            ((50, 0.0, True), 0, 9e-5)]
    lines, diffs = searchbench.compare(SEARCHES, here, THERE)
    assert diffs == []
    rows = {line[:16].strip(): line.split()[-4:] for line in lines[1:-1]}
    assert rows["all"] == ["3", "0.0400", "0.0800", "-50.0%"]
    assert rows["full step by G"] == ["1", "0.0100", "0.0200", "-50.0%"]
    assert rows["stalled"] == ["1", "0.0900", "0.0900", "+0.0%"]
    assert lines[-1] == "G calls: 1 here, 3 there; fewer here in 1 searches"


def test_other_decisions_and_more_G_calls_are_differences():
    here = [((0, 1.0, False), 2, 1e-5), ((4, 0.52200625, False), 2, 4e-5),
            ((50, 0.0, True), 0, 9e-5)]
    _, diffs = searchbench.compare(SEARCHES, here, THERE)
    assert diffs == ["search 0 (item 0): 2 G calls here, 1 there",
                     "search 1 (item 0): (4, 0.52200625, False) here, (3, 0.614125, False) there"]


def test_a_checkout_matches_itself():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--against", str(ROOT), "--workload", "paper",
         "--seed", "3", "--limit", "2"],
        capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "identical decisions, no search with more G calls"


def test_usage_errors():
    for args in (["--against", str(ROOT), "--workload", "analysis", "--seed", "1"],
                 ["--against", str(ROOT / "src"), "--workload", "paper", "--seed", "1"],
                 ["--against", str(ROOT), "--workload", "wide", "--seed", "1", "--limit", "0"]):
        out = subprocess.run([sys.executable, str(TOOL)] + args, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
