"""Alternating A/B runs of the benchmark between this tree and a second checkout.

    python3 tools/abbench.py --against DIR --workload W --seed S [--pairs 10]
        [--trace 1]

Run from anywhere; "this tree" is the checkout that holds this script,
uncommitted changes included, and DIR is the baseline, for example the
parent commit checked out with ``git worktree add ../parent HEAD~1``.  Each
pair runs the benchmark command of ``BENCHMARK.json`` once in each checkout,
for its ``run_seconds``, with ``--trace 0``; the side that runs first
alternates from pair to pair, so a drift in host speed does not favour
either.  Each checkout runs its own ``bench/run.py`` on its own sources.

For every end-to-end metric of ``BENCHMARK.json`` the summary prints the
median of each side, the relative change, the interquartile range of the
baseline's runs, and in how many pairs this tree did strictly better.  A
metric is marked "unresolved" when the baseline's IQR, relative to its
median, exceeds the metric's bound: such runs spread too widely to show a
change of that size.  With ``--trace 1`` the runs are traced and the
summary covers the ``per_layer`` metrics instead, which show where a
change moves the time; they have no bound, so none is marked.

Exit status: 0 when every run passed its own checks, 1 when a run failed
or reported failed operations, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def iqr(values) -> float:
    """Interquartile range, quartiles interpolated linearly between samples."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(ours: list[dict], theirs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric from paired run results.

    ``ours[i]`` and ``theirs[i]`` are the result JSON of pair i (the last
    stdout line of ``bench/run.py``); ``metrics`` is the ``end_to_end``
    or the ``per_layer`` list of ``BENCHMARK.json``.  A metric without a
    bound is never unresolved.
    """
    rows = []
    for spec in metrics:
        name, bound = spec["name"], spec.get("bound")
        a = [r["metrics"][name]["value"] for r in ours]
        b = [r["metrics"][name]["value"] for r in theirs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        base, spread = statistics.median(b), iqr(b)
        rel_spread = spread / abs(base) if base else (0.0 if spread == 0.0 else float("inf"))
        rows.append({
            "metric": name,
            "baseline": base,
            "change": statistics.median(a),
            "baseline_iqr": spread,
            "baseline_iqr_rel": rel_spread,
            "won": sum(sign * (x - y) < 0.0 for x, y in zip(a, b)),
            "pairs": len(a),
            "unresolved": bound is not None and rel_spread > bound,
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    # the per-layer names are longer than the end-to-end ones
    width = max([18] + [len(r["metric"]) + 2 for r in rows])
    lines = [f"{'metric':<{width}}{'baseline':>12}{'change':>12}{'delta':>9}"
             f"{'baseline IQR':>20}{'won':>8}"]
    for r in rows:
        base, new = r["baseline"], r["change"]
        delta = f"{(new - base) / abs(base):+.1%}" if base else ("+0.0%" if new == base else "n/a")
        spread = f"{r['baseline_iqr']:.4g} ({r['baseline_iqr_rel']:.1%})"
        lines.append(f"{r['metric']:<{width}}{base:>12.4g}{new:>12.4g}{delta:>9}{spread:>20}"
                     f"{str(r['won']) + '/' + str(r['pairs']):>8}"
                     + ("  unresolved" if r["unresolved"] else ""))
    return lines


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds,
             trace: int = 0) -> dict:
    """Result JSON of one benchmark run in the checkout at ``root``."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: the benchmark exited with status {proc.returncode} in {root}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, required=True,
                   help="directory of the baseline checkout")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced runs, summarised over the per-layer metrics")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    if not (args.against / "bench" / "run.py").is_file():
        p.error(f"{args.against} is not a checkout of the repository")
    return args


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    sides = {"change": ROOT, "baseline": args.against.resolve()}
    seconds = spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    results = {"change": [], "baseline": []}
    ok = True
    for i in range(args.pairs):
        order = ("change", "baseline") if i % 2 == 0 else ("baseline", "change")
        for side in order:
            res = run_once(sides[side], spec["command"], args.workload, args.seed, seconds,
                           args.trace)
            ok &= bool(res["correct"]) and res["failed"] == 0
            results[side].append(res)
            shown = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                             for m in metrics)
            print(f"pair {i + 1} {side}: {shown}", flush=True)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {seconds} s, "
          f"change {ROOT} against baseline {sides['baseline']}")
    for line in format_rows(summary(results["change"], results["baseline"], metrics)):
        print(line)
    if not ok:
        print("error: a run reported failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
