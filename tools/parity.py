"""Bit-for-bit parity of the benchmark's outputs between two checkouts.

    python3 tools/parity.py --against DIR [--seeds 5 7]
        [--workloads paper wide analysis] [--limit N]

Run from anywhere; "this tree" is the checkout that holds this script,
uncommitted changes included.  The other side is a second checkout of the
repository in DIR; to compare against a commit, check it out first, for
example with ``git worktree add ../parent HEAD~1`` and ``--against
../parent``.  For every workload and bench seed, each side builds the pool
with its own ``bench/workloads.py`` and ``src/stepopt`` in a fresh
interpreter with one BLAS thread, runs every item, and reduces the output to exact values: floats by their hex form,
arrays by dtype, shape and bytes.  A solve is compared on ``x`` and ``W``,
status, iterations, trace, ``final_residual``, final report, active set,
the workload's check and its quality verdicts; an analysis task on the
workload's summary and check.  --limit runs only the first N items of
each pool.

Prints one line per workload and seed and the first differences found.
Exit status: 0 when both sides agree on every field, 1 on any difference,
2 on a usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper", "wide", "analysis")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOWN = 10


def exact(v):
    """``v`` as nested tuples of values that compare equal only when bit-identical."""
    import numpy as np

    if isinstance(v, np.ndarray):
        return ("array", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, (float, np.floating)):
        return ("float", float(v).hex())
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (tuple, list)):
        return tuple(exact(e) for e in v)
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,
                tuple((f.name, exact(getattr(v, f.name))) for f in dataclasses.fields(v)))
    if type(v).__name__ == "ActiveSet":
        return ("ActiveSet", v.shape, exact(v.rows), exact(v.cols))
    return v


def check_message(workloads, wl, item, out):
    """None when the workload's check accepts ``out``, else its message."""
    try:
        wl.check(item, out)
    except workloads.CheckFailed as exc:
        return str(exc)
    return None


def solve_fields(workloads, wl, item, res) -> dict:
    return {
        "x": exact(res.point.x), "W": exact(res.point.W), "status": res.status,
        "iterations": res.iterations, "trace": exact(res.trace),
        "final_residual": exact(res.final_residual),
        "final_report": exact(res.final_report), "active": exact(res.active),
        "check": check_message(workloads, wl, item, res),
        "quality": exact(wl.quality(item, res)),
    }


def analysis_fields(workloads, wl, item, out) -> dict:
    return {"summary": exact(wl.summary(item, out)),
            "check": check_message(workloads, wl, item, out)}


def dump(root: Path, workload: str, seed: int, limit) -> list[dict]:
    """Fields of every item of one pool, run with the checkout at ``root``."""
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import stepopt
    import workloads

    if Path(stepopt.__file__).resolve().parent != (root / "src" / "stepopt").resolve():
        raise SystemExit(f"imported stepopt from {stepopt.__file__}, not from {root}")
    wl = workloads.WORKLOADS[workload]
    fields = analysis_fields if wl.quality is None else solve_fields
    api = workloads.plain_api()
    with tempfile.TemporaryDirectory(prefix="stepopt-parity-") as tmp:
        items = wl.build(seed, stepopt.make_norm_opt, str(Path(tmp) / "export.lp"))
        return [fields(workloads, wl, item, wl.run(item, api)) for item in items[:limit]]


def run_side(root: Path, workload: str, seed: int, limit):
    """The fields of one pool run with the checkout at ``root``; None if the run failed."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(root),
           "--workloads", workload, "--seeds", str(seed)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=False)
    return pickle.loads(proc.stdout) if proc.returncode == 0 else None


def differences(ours, theirs) -> list[str]:
    if ours is None or theirs is None:
        return [f"the run failed {'here' if ours is None else 'there'} (traceback above)"]
    if len(ours) != len(theirs):
        return [f"pool sizes differ: {len(ours)} here, {len(theirs)} there"]
    return [f"item {i}: {name}"
            for i, (a, b) in enumerate(zip(ours, theirs))
            for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]


def compare(other: Path, seeds, names, limit) -> int:
    failed = False
    for name in names:
        for seed in seeds:
            diffs = differences(run_side(ROOT, name, seed, limit),
                                run_side(other, name, seed, limit))
            failed |= bool(diffs)
            print(f"{name} seed {seed}: " + (f"{len(diffs)} differences" if diffs else "identical"))
            for line in diffs[:SHOWN]:
                print("  " + line)
            sys.stdout.flush()
    return 1 if failed else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--against", type=Path, help="directory of the other checkout")
    side.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--seeds", type=int, nargs="+", default=[5, 7])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--limit", type=int, default=None, help="items per pool (default: all)")
    args = p.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        p.error("--limit must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.dump is not None:
        out = dump(args.dump, args.workloads[0], args.seeds[0], args.limit)
        sys.stdout.buffer.write(pickle.dumps(out))
        return 0
    if not (args.against / "bench" / "workloads.py").is_file():
        print(f"error: {args.against} is not a checkout of the repository", file=sys.stderr)
        return 2
    return compare(args.against.resolve(), args.seeds, args.workloads, args.limit)


if __name__ == "__main__":
    sys.exit(main())
