"""Command-line interface: solve, check, bounds, bench, and export-bip.

Every run is driven by flags (optionally seeded from a flat key=value config
file; explicit flags win).  All randomness flows from --seed, so repeated
invocations with equal flags write byte-identical trace CSVs; bench timing
columns are the one wall-clock exception.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import time
from typing import Optional

import numpy as np

from .baselines import export_bip
from .bounds import (
    dkw_sample_size,
    feasibility_confidence,
    feasibility_sample_size,
    s_lower_bound,
)
from .geometry import step_norm
from .problems import (
    ProblemInstance,
    load_samples,
    make_counterexample,
    make_norm_opt,
)
from .solver import SolverAbort, SolverConfig, gamma_for, solve
from .stationarity import (
    PrimalDualPoint,
    check_bkkt,
    check_kkt,
    check_tau_stationary,
    max_stationary_tau,
)

__all__ = ["main", "build_parser", "TRACE_HEADER", "BENCH_HEADER"]

TRACE_HEADER = "iter,residual,objective,violations,step,mu,direction"
BENCH_HEADER = "sweep_var,value,median_objective,median_time_s,median_iters,converged_frac"

PRESETS = ("sec4-3", "counterexample")


class CliParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _num(v: float) -> str:
    return repr(float(v))


# ------------------------------------------------------------- config files

def load_config(path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blank lines skipped."""
    pairs: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip() or not value.strip():
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            pairs[key.strip()] = value.strip()
    return pairs


def _inline_config(argv: list[str]) -> list[str]:
    """Replace '--config FILE' with the file's flags, placed before user flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config requires a file path")
    flags: list[str] = []
    for key, value in load_config(argv[i + 1]).items():
        flags.append("--" + key.replace("_", "-"))
        flags.append(value)
    # config flags go right after the subcommand so any explicit flag,
    # wherever it appears, overrides the file
    rest = argv[1:i] + argv[i + 2:]
    return argv[:1] + flags + rest


# ------------------------------------------------------------ shared pieces

def add_instance_flags(p: argparse.ArgumentParser, with_preset: bool = True):
    g = p.add_argument_group("instance")
    g.add_argument("--K", type=int, default=10, help="decision dimension")
    g.add_argument("--M", type=int, default=1, help="constraint rows per sample")
    g.add_argument("--N", type=int, default=100, help="sample count")
    g.add_argument("--alpha", type=float, default=0.05,
                   help="violation level; default budget is ceil(alpha*N)")
    g.add_argument("--b", type=float, default=100.0, help="constraint threshold")
    g.add_argument("--lambda1", type=float, default=0.5,
                   help="negative-part penalty weight")
    g.add_argument("--lambda2", type=float, default=0.5,
                   help="quadratic regularization weight")
    g.add_argument("--seed", type=int, default=0, help="sample draw seed")
    g.add_argument("--samples", metavar="FILE",
                   help="build the instance from a sample CSV instead of drawing")
    if with_preset:
        g.add_argument("--preset", choices=PRESETS,
                       help="built-in two-variable instance separating the "
                            "optimality checks")


def add_solver_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("solver")
    g.add_argument("--s", type=int, default=None,
                   help="violation budget (default ceil(alpha*N))")
    g.add_argument("--tau", type=float, default=0.75, help="step size of the check")
    g.add_argument("--gamma", type=float, default=None,
                   help="line-search slack (default a/s with a set by alpha)")
    g.add_argument("--max-it", type=int, default=2000, help="iteration cap")
    g.add_argument("--tol-scale", type=float, default=1e-9,
                   help="stopping tolerance per unit of K*M*N")
    g.add_argument("--rho", type=float, default=1e-2, help="smoothing-residual ratio")
    g.add_argument("--mu-bar", type=float, default=1e-2, help="initial smoothing cap")
    g.add_argument("--nu", type=float, default=0.999, help="smoothing decay")
    g.add_argument("--pi", type=float, default=0.85, help="backtracking ratio")
    g.add_argument("--t-max", type=int, default=50, help="largest backtrack exponent")


def build_instance(args) -> ProblemInstance:
    if getattr(args, "preset", None):
        return make_counterexample()
    if args.samples:
        return load_samples(args.samples, b=args.b,
                            lambda1=args.lambda1, lambda2=args.lambda2)
    return make_norm_opt(args.K, args.M, args.N, b=args.b,
                         lambda1=args.lambda1, lambda2=args.lambda2,
                         seed=args.seed)


def resolve_budget(args, problem: ProblemInstance) -> int:
    if args.s is not None:
        return args.s
    return math.ceil(args.alpha * problem.N)


def solver_config(args, s: int) -> SolverConfig:
    gamma = args.gamma if args.gamma is not None else gamma_for(args.alpha, s)
    return SolverConfig(s=s, tau=args.tau, max_it=args.max_it,
                        tol_scale=args.tol_scale, rho=args.rho,
                        mu_bar=args.mu_bar, nu=args.nu, pi=args.pi,
                        gamma=gamma, t_max=args.t_max)


def write_trace(path, trace) -> None:
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(",".join([
            str(r.iter), _num(r.residual), _num(r.objective),
            str(r.violations), _num(r.step), _num(r.mu), r.direction_kind,
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_point(path, problem: ProblemInstance):
    """Point file: one line of K values for x, then optionally M lines of N
    values for the multiplier matrix; '#' comments and blank lines ignored."""
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(t) for t in re.split(r"[,\s]+", line) if t])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not numeric") from None
    if not rows:
        raise ValueError(f"{path}: no point data")
    x = np.array(rows[0], dtype=float)
    if x.size != problem.K:
        raise ValueError(f"{path}: x has {x.size} entries, expected {problem.K}")
    if len(rows) == 1:
        return x, None
    if len(rows) != 1 + problem.M or any(len(r) != problem.N for r in rows[1:]):
        raise ValueError(f"{path}: multiplier block must be {problem.M} lines "
                         f"of {problem.N} values")
    return x, np.array(rows[1:], dtype=float)


# -------------------------------------------------------------- subcommands

def cmd_solve(args) -> int:
    problem = build_instance(args)
    s = resolve_budget(args, problem)
    cfg = solver_config(args, s)
    t0 = time.perf_counter()
    res = solve(problem, cfg)
    elapsed = time.perf_counter() - t0
    if args.trace:
        write_trace(args.trace, res.trace)
    tol = cfg.tol_scale * problem.K * problem.M * problem.N
    Z = problem.G(res.point.x)
    violations = int(np.count_nonzero(Z.max(axis=0) > tol))
    print(f"status={res.status}"
          f" objective={_num(problem.f(res.point.x))}"
          f" violations={violations}"
          f" residual={_num(res.final_residual)}"
          f" time_s={elapsed:.3f}"
          f" iterations={res.iterations}")
    return 0


def _verdict(report) -> str:
    text = "satisfied" if report.satisfied else "violated"
    text += f" (residual {_num(report.residual)})"
    if report.reason:
        text += f" [{report.reason}]"
    return text


def cmd_check(args) -> int:
    problem = build_instance(args)
    s = resolve_budget(args, problem)
    x, W = read_point(args.point, problem)

    kkt = check_kkt(problem, x, s, tol=args.tol)
    print(f"KKT: {_verdict(kkt)}")

    y = (problem.G(x).max(axis=0) <= 0.0).astype(int)
    try:
        bkkt = check_bkkt(problem, x, y, s, tol=args.tol)
        print(f"BKKT: {_verdict(bkkt)}")
    except ValueError as exc:
        print(f"BKKT: not applicable ({exc})")

    point = PrimalDualPoint(x, np.zeros((problem.M, problem.N)) if W is None else W)
    tau_rep = check_tau_stationary(problem, point, args.tau, s, tol=args.tol)
    label = f"tau-stationary (tau={_num(args.tau)}"
    label += ", multipliers defaulted to zero)" if W is None else ")"
    print(f"{label}: {_verdict(tau_rep)}")

    try:
        tau_star = max_stationary_tau(problem, x, s, ztol=args.tol)
        print(f"max stationary tau: {_num(tau_star)}")
    except ValueError as exc:
        print(f"max stationary tau: unavailable ({exc})")
    return 0


def cmd_bounds(args) -> int:
    shown = False
    if args.epsilon is not None and args.beta is not None:
        n = dkw_sample_size(args.epsilon, args.beta)
        print(f"dkw sample size (epsilon={_num(args.epsilon)},"
              f" beta={_num(args.beta)}): {n}")
        shown = True
    if args.alpha is not None and args.s is not None and args.beta is not None:
        simplified = feasibility_sample_size(args.alpha, args.s, args.beta)
        exact = feasibility_sample_size(args.alpha, args.s, args.beta, exact=True)
        print(f"feasibility sample size (alpha={_num(args.alpha)}, s={args.s},"
              f" beta={_num(args.beta)}): {simplified} (simplified),"
              f" {exact} (exact)")
        shown = True
    if args.alpha is not None and args.s is not None and args.N is not None:
        conf = feasibility_confidence(args.alpha, args.s, args.N)
        flag = " [vacuous (<0)]" if conf < 0 else ""
        print(f"feasibility confidence (alpha={_num(args.alpha)}, s={args.s},"
              f" N={args.N}): {_num(conf)}{flag}")
        shown = True
    if args.nu is not None and args.alpha_star is not None and args.N is not None:
        bound, conf = s_lower_bound(args.nu, args.alpha_star, args.N)
        flag = " [vacuous (<0)]" if conf < 0 else ""
        print(f"budget lower bound (nu={_num(args.nu)},"
              f" alpha-star={_num(args.alpha_star)}, N={args.N}):"
              f" {_num(bound)} (confidence {_num(conf)}{flag})")
        shown = True
    if not shown:
        args.parser.print_help()
    return 0


def cmd_bench(args) -> int:
    if args.samples:
        raise ValueError("bench draws fresh seeded instances; --samples is not supported")
    sweep = args.sweep
    integer = sweep in ("K", "M", "N")
    try:
        if integer:
            values = [int(v) for v in args.values.split(",") if v.strip()]
        else:
            values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values must be a comma list of numbers, got {args.values!r}")
    if not values:
        raise ValueError("--values is empty")

    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")

    seeds = np.random.SeedSequence(args.seed).generate_state(len(values) * args.trials)
    rows = [BENCH_HEADER]
    idx = 0
    for value in values:
        # the flags of this sweep point: a copy of args with the swept value
        point = argparse.Namespace(**vars(args))
        setattr(point, sweep, value)
        objectives, times, iters, converged = [], [], [], 0
        for _ in range(args.trials):
            point.seed = int(seeds[idx])
            idx += 1
            instance = build_instance(point)
            cfg = solver_config(point, resolve_budget(point, instance))
            t0 = time.perf_counter()
            try:
                res = solve(instance, cfg)
            except SolverAbort as exc:
                print(f"note: trial aborted at {sweep}={value}: {exc}",
                      file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            objectives.append(instance.f(res.point.x))
            iters.append(res.iterations)
            converged += res.status == "Converged"
        med = lambda xs: _num(np.median(xs)) if xs else "nan"
        value_txt = str(value) if integer else _num(value)
        rows.append(",".join([
            sweep, value_txt, med(objectives),
            f"{np.median(times):.6f}" if times else "nan",
            med(iters), _num(converged / args.trials),
        ]))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export_bip(args) -> int:
    problem = build_instance(args)
    s = resolve_budget(args, problem)
    export_bip(problem, s, args.out, big_M=args.big_M)
    print(f"wrote {args.out}")
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> CliParser:
    parser = CliParser(prog="stepopt",
                       description="Solver and tools for optimization with a "
                                   "budget on violated sample constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="run the smoothing Newton solver",
                       description="Build an instance, run the solver, print a "
                                   "summary line; --trace writes the iteration CSV.")
    add_instance_flags(p)
    add_solver_flags(p)
    p.add_argument("--trace", metavar="FILE", help="write per-iteration CSV here")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value defaults; explicit flags override")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify optimality conditions at a point",
                       description="Read a point file and print KKT, BKKT, and "
                                   "projection-stationarity verdicts.")
    add_instance_flags(p)
    p.add_argument("--point", required=True, metavar="FILE",
                   help="x on the first line; optional multiplier rows after")
    p.add_argument("--s", type=int, default=None,
                   help="violation budget (default ceil(alpha*N))")
    p.add_argument("--tau", type=float, default=0.75, help="step size of the check")
    p.add_argument("--tol", type=float, default=1e-9, help="verdict tolerance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="evaluate the sample-size formulas",
                       description="Print whichever bound formulas the given "
                                   "flags determine; no flags prints this help.")
    p.add_argument("--alpha", type=float, default=None, help="violation level")
    p.add_argument("--s", type=int, default=None, help="violation budget")
    p.add_argument("--beta", type=float, default=None, help="confidence complement")
    p.add_argument("--epsilon", type=float, default=None, help="CDF accuracy")
    p.add_argument("--nu", type=float, default=None, help="budget fraction")
    p.add_argument("--alpha-star", type=float, default=None,
                   help="target violation level")
    p.add_argument("--N", type=int, default=None, help="sample count")
    p.set_defaults(func=cmd_bounds)
    p.set_defaults(parser=p)

    p = sub.add_parser("bench", help="sweep a dimension and emit a CSV",
                       description="Solve seeded instances across a sweep; one "
                                   "CSV row of medians per sweep value.")
    add_instance_flags(p, with_preset=False)
    add_solver_flags(p)
    p.add_argument("--sweep", required=True, choices=("K", "M", "N", "alpha", "tau"),
                   help="which quantity the sweep varies")
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    p.add_argument("--trials", type=int, default=20,
                   help="seeded trials per sweep value")
    p.add_argument("--out", metavar="FILE", help="write the CSV here (default stdout)")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value defaults; explicit flags override")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-bip", help="write the big-M mixed-binary model",
                       description="Export a norm-design instance as an "
                                   "LP-format file for external MIP solvers.")
    add_instance_flags(p, with_preset=False)
    p.add_argument("--s", type=int, default=None,
                   help="violation budget (default ceil(alpha*N))")
    p.add_argument("--big-M", dest="big_M", type=float, default=10_000.0,
                   help="enforcement constant")
    p.add_argument("--out", required=True, metavar="FILE", help="output path")
    p.set_defaults(func=cmd_export_bip)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inline_config(argv)
    except (OSError, ValueError) as exc:
        print(f"stepopt: error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverAbort as exc:
        print(f"stepopt: solver abort: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"stepopt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
