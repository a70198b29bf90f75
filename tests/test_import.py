"""What ``import stepopt`` loads."""
import os
import subprocess
import sys
from pathlib import Path

import stepopt


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about a quarter second to the import; only the
    # multiplier checks need it, and they import it when called
    src = str(Path(stepopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, stepopt; "
            "print(stepopt.__file__); print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert Path(out[0]).resolve() == Path(stepopt.__file__).resolve()
    assert out[1] == "False"
