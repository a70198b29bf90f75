"""tools/parity.py: exact reduction of outputs and the comparison of two checkouts."""
import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from stepopt.problems import _build_norm_opt, make_norm_opt
from stepopt.stationarity import ActiveSet

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"

spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def test_exact_tells_apart_what_equality_does_not():
    assert parity.exact(0.0) != parity.exact(-0.0)
    assert parity.exact(np.float64(1.5)) == parity.exact(1.5)
    assert parity.exact(np.zeros(2)) != parity.exact(np.array([0.0, -0.0]))
    assert parity.exact(np.zeros(2)) != parity.exact(np.zeros((1, 2)))
    assert parity.exact(np.zeros(2)) != parity.exact(np.zeros(2, dtype=np.float32))
    mask = np.eye(2, dtype=bool)
    assert parity.exact(ActiveSet.from_mask(mask)) == parity.exact(ActiveSet([(0, 0), (1, 1)], (2, 2)))
    assert parity.exact(ActiveSet.from_mask(mask)) != parity.exact(ActiveSet([(0, 0)], (2, 2)))


def test_instance_digests_cover_raw_and_squared_draws():
    assert parity.instance_fields(make_norm_opt(3, 2, 4, seed=1)) == \
        parity.instance_fields(make_norm_opt(3, 2, 4, seed=1))
    assert parity.instance_fields(make_norm_opt(3, 2, 4, seed=1)) != \
        parity.instance_fields(make_norm_opt(3, 2, 4, seed=2))
    # draws that differ only in the sign of a zero have the same squares
    draws = np.array([[[0.0, 1.5, -2.0]]])
    flipped = draws.copy()
    flipped[0, 0, 0] = -0.0
    a = parity.instance_fields(_build_norm_opt(draws, 1.0, 0.5, 0.5, None))
    b = parity.instance_fields(_build_norm_opt(flipped, 1.0, 0.5, 0.5, None))
    assert a["xi_sq"] == b["xi_sq"] and a["xi"] != b["xi"]
    assert a["xi"][:2] == ("<f8", (1, 1, 3))


def test_differences_name_the_item_and_field():
    a = [{"x": 1, "status": "Converged"}, {"x": 2, "status": "Converged"}]
    b = [{"x": 1, "status": "Converged"}, {"x": 2, "status": "LineSearchStalled"}]
    assert parity.differences(a, a) == []
    assert parity.differences(a, b) == ["item 1: status"]
    assert parity.differences(a, b[:1]) == ["pool sizes differ: 2 here, 1 there"]


def test_a_checkout_matches_itself():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--against", str(ROOT), "--seeds", "3",
         "--workloads", "paper", "--limit", "2"],
        capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout == "paper seed 3: identical\n"


def test_each_record_carries_its_instance_digests():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--dump", str(ROOT), "--seeds", "3",
         "--workloads", "paper", "--limit", "1"],
        capture_output=True, check=True)
    record, = pickle.loads(out.stdout)
    assert record["xi"][:2] == record["xi_sq"][:2] == ("<f8", (100, 1, 10))
    assert record["xi"][2] != record["xi_sq"][2]
