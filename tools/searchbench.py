"""Replay of the solver's feasibility line searches in this tree and a second checkout.

    python3 tools/searchbench.py --against DIR --workload {paper,wide} --seed S
        [--limit N]

Run from anywhere; "this tree" is the checkout that holds this script,
uncommitted changes included, and DIR is the baseline, for example the
parent commit checked out with ``git worktree add ../parent HEAD~1``.
The searches are recorded once, with this tree: every call that ``solve``
makes to ``feasibility_line_search`` while it runs the bench pool of the
workload and seed, as its point, direction, budget, slack and
``full_step_first``.  --limit records only the first N items of the pool.

Each checkout then replays them in a fresh interpreter with one BLAS
thread: it builds the same pool with its own ``bench/workloads.py`` and
``src/stepopt``, evaluates ``Z = G(x)`` and runs each search once with a
counting ``G``, for its result and its ``G`` calls, then times it
repeatedly.  The two sides replay in turns, in alternating order, and a
search's time is its fastest run on that side.  Every replay starts from
the exact G(x), where a search inside ``solve`` may get a Z that holds
bounds on some columns (see ``ProblemInstance.G_step``): the envelope of
the model then reads exact column maxima where the solve read bounds, so
the replay times the searches, not the refresh that feeds them.

Prints the median time per search on each side, over all searches and
split by how they end: the full step accepted by ``G`` before any model
(``full_step_first``), another step accepted, and stalled.  Exit status: 0
when both sides decide every search with the same ``(t, alpha, stalled)``
and this tree never calls ``G`` more often than the baseline, 1 otherwise,
2 on a usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper", "wide")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each side replays every search this many times per turn, in this many turns
REPEATS = 3
TURNS = 2
KINDS = ("full step by G", "accepted", "stalled")
SHOWN = 10


def load_pool(root: Path, workload: str, seed: int, limit):
    """(stepopt.solver, items) of the checkout at ``root``."""
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import stepopt
    import stepopt.solver
    import workloads

    if Path(stepopt.__file__).resolve().parent != (root / "src" / "stepopt").resolve():
        raise SystemExit(f"imported stepopt from {stepopt.__file__}, not from {root}")
    items = workloads.WORKLOADS[workload].build(seed, stepopt.make_norm_opt, None)
    return stepopt.solver, items[:limit]


def record(workload: str, seed: int, limit) -> list[tuple]:
    """(item, x, d_x, s, gamma, full_step_first) of every search of the pool's solves."""
    solver, items = load_pool(ROOT, workload, seed, limit)
    plain = solver.feasibility_line_search
    calls = []
    for i, item in enumerate(items):
        def recorder(problem, x, d_x, s, gamma, Z, full_step_first=False, i=i):
            calls.append((i, x.copy(), d_x.copy(), s, gamma, full_step_first))
            return plain(problem, x, d_x, s, gamma, Z, full_step_first=full_step_first)

        solver.feasibility_line_search = recorder
        try:
            solver.solve(item.problem, item.config)
        finally:
            solver.feasibility_line_search = plain
    return calls


def replay(root: Path, workload: str, seed: int, limit, searches) -> list[tuple]:
    """((t, alpha, stalled), G calls, seconds) of each search, replayed at ``root``."""
    solver, items = load_pool(root, workload, seed, limit)
    out = []
    for i, x, d, s, gamma, first in searches:
        problem = items[i].problem
        Z = problem.G(x)
        calls = [0]

        def counted(y, G=problem.G):
            calls[0] += 1
            return G(y)

        got = solver.feasibility_line_search(dataclasses.replace(problem, G=counted),
                                             x, d, s, gamma, Z, full_step_first=first)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            solver.feasibility_line_search(problem, x, d, s, gamma, Z, full_step_first=first)
            best = min(best, time.perf_counter() - start)
        out.append((got, calls[0], best))
    return out


def run_side(root: Path, workload: str, seed: int, limit, path: Path):
    """Replay of the searches in ``path`` by the checkout at ``root``; None if it failed."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--replay", str(root),
           "--searches", str(path), "--workload", workload, "--seed", str(seed)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=False)
    return pickle.loads(proc.stdout) if proc.returncode == 0 else None


def kind(result, first) -> str:
    t, _, stalled = result
    return "stalled" if stalled else ("full step by G" if first and t == 0 else "accepted")


def compare(searches, ours, theirs) -> tuple[list[str], list[str]]:
    """(summary lines, differences) of two replays of ``searches``."""
    diffs = []
    fewer = 0
    for j, ((i, *_, first), a, b) in enumerate(zip(searches, ours, theirs)):
        if a[0] != b[0]:
            diffs.append(f"search {j} (item {i}): {a[0]} here, {b[0]} there")
        elif a[1] > b[1]:
            diffs.append(f"search {j} (item {i}): {a[1]} G calls here, {b[1]} there")
        fewer += a[1] < b[1]
    lines = [f"{'searches':<16}{'count':>7}{'here ms':>10}{'there ms':>10}{'change':>9}"]
    groups = [("all", list(range(len(searches))))]
    groups += [(k, [j for j, r in enumerate(theirs) if kind(r[0], searches[j][-1]) == k])
               for k in KINDS]
    for name, idx in groups:
        if not idx:
            continue
        here = statistics.median(ours[j][2] for j in idx) * 1e3
        there = statistics.median(theirs[j][2] for j in idx) * 1e3
        lines.append(f"{name:<16}{len(idx):>7}{here:>10.4f}{there:>10.4f}"
                     f"{(here - there) / there:>+9.1%}")
    calls = (sum(r[1] for r in ours), sum(r[1] for r in theirs))
    lines.append(f"G calls: {calls[0]} here, {calls[1]} there; "
                 f"fewer here in {fewer} searches")
    return lines, diffs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--against", type=Path, help="directory of the baseline checkout")
    side.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    side.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--searches", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--limit", type=int, default=None, help="items of the pool (default: all)")
    args = p.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        p.error("--limit must be >= 1")
    if args.against is not None and not (args.against / "bench" / "workloads.py").is_file():
        p.error(f"{args.against} is not a checkout of the repository")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record:
        sys.stdout.buffer.write(pickle.dumps(record(args.workload, args.seed, args.limit)))
        return 0
    if args.replay is not None:
        with open(args.searches, "rb") as fh:
            searches = pickle.load(fh)
        out = replay(args.replay, args.workload, args.seed, args.limit, searches)
        sys.stdout.buffer.write(pickle.dumps(out))
        return 0
    sides = {"here": ROOT, "there": args.against.resolve()}
    with tempfile.TemporaryDirectory(prefix="stepopt-searchbench-") as tmp:
        path = Path(tmp) / "searches.pickle"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--record",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            print("error: recording the searches failed (traceback above)", file=sys.stderr)
            return 1
        path.write_bytes(proc.stdout)
        searches = pickle.loads(proc.stdout)
        runs = {"here": [], "there": []}
        for turn in range(TURNS):
            for side in (("here", "there") if turn % 2 == 0 else ("there", "here")):
                out = run_side(sides[side], args.workload, args.seed, args.limit, path)
                if out is None:
                    print(f"error: the replay failed in {sides[side]} (traceback above)",
                          file=sys.stderr)
                    return 1
                runs[side].append(out)
    # the fastest run of each search on each side; results and calls repeat
    best = {side: [(rs[0][j][0], rs[0][j][1], min(r[j][2] for r in rs))
                   for j in range(len(searches))] for side, rs in runs.items()}
    for side, rs in runs.items():
        if any([r[:2] for r in run] != [r[:2] for r in rs[0]] for run in rs):
            print(f"error: the replays {side} disagree with each other", file=sys.stderr)
            return 1
    lines, diffs = compare(searches, best["here"], best["there"])
    print(f"{args.workload} seed {args.seed}: {len(searches)} searches, "
          f"{ROOT} here against {sides['there']} there")
    for line in lines:
        print(line)
    print(f"{len(diffs)} differences" if diffs else "identical decisions, no search with more G calls")
    for line in diffs[:SHOWN]:
        print("  " + line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
