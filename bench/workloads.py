"""Inputs, operations and output checks of the benchmark workloads.

Every workload is a fixed-size pool of items drawn from the benchmark seed.
``run(item, api)`` is one operation; ``api`` holds the library functions it
may call, either plain or wrapped for tracing.  ``summary`` reduces an
output to a value that must repeat bit for bit on every run of the item,
``check`` raises :class:`CheckFailed` when an output is wrong, and
``quality`` classifies a solver output (see README.md for the metrics).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.optimize

import stepopt
from stepopt import (
    GridSpec,
    PrimalDualPoint,
    SolverConfig,
    gamma_for,
    make_counterexample,
    norm_opt_draw,
    step_norm,
)
from stepopt.stationarity import ActiveSet, stationarity_residual

TAU = 0.75
STATUSES = ("Converged", "MaxIterations", "LineSearchStalled")

# Functions an operation may call; tracing wraps each under its span name.
API_SPANS = {
    "solve": "solver.solve",
    "check_kkt": "stationarity.check_kkt",
    "check_bkkt": "stationarity.check_bkkt",
    "max_stationary_tau": "stationarity.max_tau",
    "check_tau_stationary": "stationarity.check_tau",
    "project_step": "geometry.project_step",
    "monte_carlo_feasibility": "bounds.monte_carlo",
    "grid_search": "baselines.grid_search",
    "export_bip": "baselines.export_bip",
}


class CheckFailed(Exception):
    """An operation returned an output the benchmark rejects."""


def plain_api() -> SimpleNamespace:
    fns = {attr: getattr(stepopt, attr) for attr in API_SPANS}
    return SimpleNamespace(problem=lambda p: p, draw=lambda d: d, **fns)


def _seeds(seed: int, tag: str, count: int) -> list[int]:
    entropy = [seed, int.from_bytes(tag.encode(), "little")]
    return [int(v) for v in np.random.SeedSequence(entropy).generate_state(count)]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- solves

@dataclass(frozen=True)
class Solve:
    problem: object
    config: SolverConfig


# On the paper family about 1 solve in 480 wanders until the iteration cap
# (6 of 2880 measured; every other solve ended within 14 iterations, every
# converged one within 10).  At the default cap of 2000 one such solve costs
# as much as 200 typical ones, so their count in a pool, not the solver's
# speed, would set ops_per_s.  Capped at 100 they still end MaxIterations.
PAPER_MAX_IT = 100
PAPER_PER_PAIR = 320


def _solve_item(make, K, M, N, b, alpha, seed, **knobs) -> Solve:
    problem = make(K, M, N, b=b, seed=seed)
    s = math.ceil(alpha * N)
    # gamma as the CLI sets it
    return Solve(problem, SolverConfig(s=s, gamma=gamma_for(alpha, s), **knobs))


def build_paper(seed: int, make) -> list[Solve]:
    """K=10, M=1, N=100 over alpha x b, 320 instances per pair (1920 solves).

    The pool is this large so that the stalled share, which decides the
    time distribution and the miss fractions, varies little between seeds.
    About 44% of solves stall, and they make up the slow part of the time
    distribution, so the median sits close to the edge of the fast part: at
    960 solves the stalled share ran from 0.42 to 0.47 between seeds, and
    the median time spread by 15%.
    """
    pairs = [(alpha, b) for alpha in (0.01, 0.05, 0.1) for b in (14.0, 16.0)]
    seeds = _seeds(seed, "paper", PAPER_PER_PAIR * len(pairs))
    return [_solve_item(make, 10, 1, 100, b, alpha, seeds[i], max_it=PAPER_MAX_IT)
            for i, (alpha, b) in enumerate(p for p in pairs for _ in range(PAPER_PER_PAIR))]


def build_wide(seed: int, make) -> list[Solve]:
    """K=50, M=20, N=2000, b=40, alpha=0.05; 12 instances of about 32 MB each."""
    return [_solve_item(make, 50, 20, 2000, 40.0, 0.05, sd)
            for sd in _seeds(seed, "wide", 12)]


def run_solve(item: Solve, api):
    return api.solve(api.problem(item.problem), item.config)


def summary_solve(item: Solve, res):
    return (res.point.x.tobytes(), res.point.W.tobytes(), res.status,
            res.iterations, res.trace)


def check_solve(item: Solve, res) -> None:
    _require(res.status in STATUSES, f"unknown status {res.status!r}")
    _require(res.iterations == len(res.trace), "iteration count differs from trace length")
    _require(bool(np.all(np.isfinite(res.point.x))), "non-finite x")
    F = stationarity_residual(item.problem, res.point, res.active)
    _require(res.final_residual == float(np.linalg.norm(F)),
             f"final_residual {res.final_residual!r} differs from the recomputed norm")


def quality_solve(item: Solve, res) -> tuple[bool, bool, bool]:
    """(converged, within budget, tau-stationary) for one solver output."""
    p, cfg = item.problem, item.config
    tol = cfg.tol_scale * p.K * p.M * p.N
    budget_ok = step_norm(p.G(res.point.x)) <= cfg.s
    tau_ok = stepopt.check_tau_stationary(p, res.point, TAU, cfg.s, tol=tol).satisfied
    return res.status == "Converged", budget_ok, tau_ok


# -------------------------------------------------------------- analysis

ANALYSIS_DIMS = (20, 5, 500)      # K, M, N of each task's instance
ANALYSIS_ALPHA = 0.05
TOL = 1e-9
TIE_SHAPE = (4, 40)
TIE_KEEP, TIE_COUNT, TIE_FILL = 3, 14, 7   # columns kept outright, tied, kept from the tie
MC_TRIALS, MC_HOLDOUT, MC_ALPHA = 4, 10_000, 0.1
GRID_POINTS = 501
COUNTEREXAMPLE = make_counterexample()
COUNTEREXAMPLE_X = np.array([1.0, 1.0])
GRID = GridSpec(lower=[0.0, 0.0], upper=[5.0, 5.0], points_per_dim=GRID_POINTS)


@dataclass(frozen=True)
class Task:
    problem: object          # norm-design instance; x sits on its budget boundary
    x: np.ndarray
    s: int
    y: np.ndarray            # enforced samples: the columns within budget at x
    zero_pair: tuple[int, int]
    tie_Z: np.ndarray
    mc_seed: int
    lp_path: str


def _boundary_instance(make, seed: int, rng):
    """Instance and x with exactly s violating columns and one zero-max column.

    The threshold b is set to the (s+1)-th largest column maximum of the
    sample sums at x, so that column's maximum is exactly zero.
    """
    K, M, N = ANALYSIS_DIMS
    s = math.ceil(ANALYSIS_ALPHA * N)
    x = rng.uniform(0.5, 1.5, K)
    sums = np.einsum("nmk,k->mn", make(K, M, N, seed=seed).xi_sq, x * x)
    b = float(np.sort(sums.max(axis=0))[::-1][s])
    problem = make(K, M, N, b=b, seed=seed)
    Z = problem.G(x)
    zero_cols = np.flatnonzero(Z.max(axis=0) == 0.0)
    if step_norm(Z) != s or zero_cols.size != 1:
        raise RuntimeError(f"seed {seed}: boundary construction hit a tie")
    n = int(zero_cols[0])
    y = (Z.max(axis=0) <= 0.0).astype(int)
    return problem, x, s, y, (int(np.argmax(Z[:, n])), n)


def _tie_matrix(rng) -> np.ndarray:
    """Negative matrix with TIE_KEEP large columns, TIE_COUNT identical
    positive columns and two zero-max columns, in shuffled positions."""
    M, N = TIE_SHAPE
    Z = -rng.uniform(0.1, 1.0, (M, N))
    cols = rng.permutation(N)
    big, tied, zero = np.split(cols[:TIE_KEEP + TIE_COUNT + 2], [TIE_KEEP, TIE_KEEP + TIE_COUNT])
    Z[:, big] = 5.0 + rng.uniform(0.0, 1.0, (M, TIE_KEEP))
    column = rng.uniform(0.2, 1.0, M)
    column[0] = -0.5
    Z[:, tied] = column[:, None]
    Z[0, zero] = 0.0
    return Z


def build_analysis(seed: int, make, lp_path: str) -> list[Task]:
    """Eight tasks, each on its own seeded instance; LP exports go to lp_path."""
    tasks = []
    for sd in _seeds(seed, "analysis", 8):
        rng = np.random.default_rng(sd)
        problem, x, s, y, pair = _boundary_instance(make, sd, rng)
        tasks.append(Task(problem, x, s, y, pair, _tie_matrix(rng),
                          int(rng.integers(2**31)), lp_path))
    return tasks


def run_analysis(t: Task, api) -> dict:
    p = api.problem(t.problem)
    kkt = api.check_kkt(p, t.x, t.s, tol=TOL)
    out = {
        "kkt": kkt,
        "bkkt": api.check_bkkt(p, t.x, t.y, t.s, tol=TOL),
        "tau_max": api.max_stationary_tau(p, t.x, t.s),
        "tau": api.check_tau_stationary(p, PrimalDualPoint(t.x, kkt.witness_W), TAU, t.s, tol=TOL),
        "proj": api.project_step(t.tie_Z, TIE_KEEP + TIE_FILL),
        "mc": api.monte_carlo_feasibility(
            api.draw(norm_opt_draw(p.K, p.M, t.problem.b)), t.x, MC_ALPHA,
            2 * t.s, p.N, MC_TRIALS, t.mc_seed, holdout=MC_HOLDOUT),
    }
    ce = api.problem(COUNTEREXAMPLE)
    bkkt_ce = api.check_bkkt(ce, COUNTEREXAMPLE_X, np.array([1, 1]), 1)
    out["ce"] = (api.check_kkt(ce, COUNTEREXAMPLE_X, 1).satisfied, bkkt_ce.satisfied,
                 api.check_tau_stationary(ce, PrimalDualPoint(COUNTEREXAMPLE_X, bkkt_ce.witness_W),
                                          TAU, 1).satisfied)
    out["grid"] = api.grid_search(ce, 1, GRID)
    out["lp"] = api.export_bip(t.problem, t.s, t.lp_path)
    return out


def summary_analysis(t: Task, out: dict):
    with open(out["lp"], "rb") as fh:
        lp = fh.read()
    proj = hashlib.sha256(np.stack(out["proj"]).tobytes()).hexdigest()
    reports = tuple((r.satisfied, r.residual, r.reason, r.active.pairs)
                    for r in (out["kkt"], out["bkkt"], out["tau"]))
    return (reports, out["tau_max"], proj, out["mc"], out["ce"],
            out["grid"][0].tobytes(), out["grid"][1], hashlib.sha256(lp).hexdigest())


def check_analysis(t: Task, out: dict) -> None:
    p, x, s = t.problem, t.x, t.s
    pair = (t.zero_pair,)
    kkt, bkkt, tau = out["kkt"], out["bkkt"], out["tau"]

    # on the boundary the one active pair is the zero entry of the zero-max
    # column, so both multiplier checks are a one-column nonnegative fit
    a = 2.0 * p.xi_sq[t.zero_pair[1], t.zero_pair[0]] * x
    _, ref = scipy.optimize.nnls(a[:, None], -p.grad_f(x))
    _require(kkt.reason is None and kkt.active.pairs == pair, "KKT active set is not the zero entry")
    _require(math.isclose(kkt.residual, ref, rel_tol=1e-9, abs_tol=1e-12),
             f"KKT residual {kkt.residual!r} differs from the nnls reference {ref!r}")
    _require(kkt.satisfied == (kkt.residual <= TOL), "KKT verdict disagrees with its residual")
    _require(bkkt.active.pairs == pair and bkkt.residual == kkt.residual
             and bkkt.satisfied == kkt.satisfied, "BKKT differs from KKT on the same active set")

    # largest tau: s-th largest positive-part norm over the multiplier size
    c = -float(a @ p.grad_f(x)) / float(a @ a)
    z_s = np.sort(np.linalg.norm(np.maximum(p.G(x), 0.0), axis=0))[::-1][s - 1]
    _require(math.isclose(out["tau_max"], z_s / abs(c), rel_tol=1e-9),
             f"max stationary tau {out['tau_max']!r} differs from {z_s / abs(c)!r}")

    V = ActiveSet(pair, (p.M, p.N))
    res = float(np.linalg.norm(stationarity_residual(p, PrimalDualPoint(x, kkt.witness_W), V)))
    _require(tau.active == V and tau.residual == res, "tau-check residual differs from the stacked norm")
    _require(tau.satisfied == (tau.reason is None and res <= TOL), "tau verdict disagrees with its parts")

    proj = np.stack(out["proj"])
    clamped = np.unique((proj != t.tie_Z).any(axis=1), axis=0)
    _require(len(proj) == math.comb(TIE_COUNT, TIE_FILL) == len(clamped),
             f"{len(proj)} projections for a tie of {TIE_COUNT} choose {TIE_FILL}")
    _require(bool(np.all(np.count_nonzero(proj.max(axis=1) > 0.0, axis=1) == TIE_KEEP + TIE_FILL)),
             "projection outside the budget")
    _require(0.0 <= out["mc"] <= 1.0, f"Monte-Carlo rate {out['mc']!r} outside [0, 1]")

    # the counterexample at (1, 1): BKKT holds, KKT and tau-stationarity fail
    _require(out["ce"] == (False, True, False), f"counterexample verdicts {out['ce']}")
    best_x, best_f = out["grid"]
    h = 5.0 / (GRID_POINTS - 1)
    _require(best_f <= (h / 2) ** 2 and step_norm(COUNTEREXAMPLE.G(best_x)) <= 1,
             f"grid optimum {best_f!r} at {best_x} is not the known minimum 0")

    with open(out["lp"]) as fh:
        lines = fh.read().splitlines()
    rows = sum(line.startswith(" g") for line in lines)
    _require(rows == p.M * p.N and f"s={s}" in lines[1] and lines[-1] == "End",
             f"LP export has {rows} constraint rows, expected {p.M * p.N}")


# build(seed, make_norm_opt, lp_path) -> items
WORKLOADS = {
    "paper": SimpleNamespace(build=lambda seed, make, _: build_paper(seed, make),
                             run=run_solve, summary=summary_solve,
                             check=check_solve, quality=quality_solve),
    "wide": SimpleNamespace(build=lambda seed, make, _: build_wide(seed, make),
                            run=run_solve, summary=summary_solve,
                            check=check_solve, quality=quality_solve),
    "analysis": SimpleNamespace(build=build_analysis, run=run_analysis, summary=summary_analysis,
                                check=check_analysis, quality=None),
}
