"""Feasibility line search: the violation model against calling G at every step.

For norm-design instances the search bounds violation counts from the
``violations_along`` model of G and calls G only where the bounds straddle
the cap.  Most tests here compare that path with the plain loop, obtained
by removing the hook, and require the same (t, alpha, stalled); the rest
count G calls and check that the model reads the samples in place.
"""
import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import stepopt.solver as solver_mod
from stepopt.geometry import step_norm
from stepopt.problems import (
    ProblemInstance,
    load_samples,
    make_norm_opt,
    save_samples,
)
from stepopt.solver import SolverConfig, feasibility_line_search, gamma_for, solve


def exact(problem):
    """The same instance without the model: the search calls G at every step."""
    return dataclasses.replace(problem, violations_along=None)


def counting(problem):
    """The same instance with a G that counts its calls in ``calls[0]``."""
    calls = [0]
    G = problem.G

    def counted(x):
        calls[0] += 1
        return G(x)

    return dataclasses.replace(problem, G=counted), calls


def both(problem, x, d, s, gamma, pi, t_max=50, full_step_first=False):
    """(model result, plain-loop result) of one search."""
    Z = problem.G(x)
    got = feasibility_line_search(problem, x, d, s, gamma, pi, t_max, Z=Z,
                                  full_step_first=full_step_first)
    want = feasibility_line_search(exact(problem), x, d, s, gamma, pi, t_max)
    return got, want


def recorded_searches(problem, config, monkeypatch):
    """Arguments of every line search that ``solve`` runs on ``problem``."""
    calls = []
    plain = solver_mod.feasibility_line_search

    def recorder(problem, x, d_x, s, gamma, pi, t_max=50, Z=None, full_step_first=False):
        calls.append((x.copy(), d_x.copy(), s, gamma, pi, t_max, full_step_first))
        return plain(problem, x, d_x, s, gamma, pi, t_max, Z=Z, full_step_first=full_step_first)

    monkeypatch.setattr(solver_mod, "feasibility_line_search", recorder)
    solve(problem, config)
    monkeypatch.undo()
    return calls


# (K, M, N, b, alpha) and the search outcomes their solves on seeds 0-5
# reach: the paper's shape at both thresholds, and a smaller copy of the
# wide benchmark shape, whose first full step always overshoots
SHAPES = [
    (10, 1, 100, 14.0, 0.05, {"full", "backtracked", "stalled"}),
    (10, 1, 100, 16.0, 0.01, {"full", "backtracked", "stalled"}),
    (10, 1, 100, 14.0, 0.1, {"full", "backtracked"}),
    (50, 20, 200, 40.0, 0.05, {"backtracked", "stalled"}),
]


@pytest.mark.parametrize("K,M,N,b,alpha,reached", SHAPES)
def test_model_matches_plain_loop_on_newton_directions(K, M, N, b, alpha, reached, monkeypatch):
    outcomes = set()
    for seed in range(6):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        s = math.ceil(alpha * N)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
        previous = None
        for *args, first in recorded_searches(problem, config, monkeypatch):
            # G goes first exactly when the previous search took the full step
            assert first == (previous is not None and previous[1] == 1.0)
            for full_step_first in (False, True):
                got, want = both(problem, *args, full_step_first=full_step_first)
                assert got == want
            previous = want
            t, _, stalled = want
            outcomes.add("stalled" if stalled else ("full" if t == 0 else "backtracked"))
    assert outcomes == reached


@pytest.mark.parametrize("K,M,N,b,alpha", [shape[:5] for shape in SHAPES])
def test_solve_with_the_model_equals_solve_without(K, M, N, b, alpha):
    for seed in range(6):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        s = math.ceil(alpha * N)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
        got, want = solve(problem, config), solve(exact(problem), config)
        assert got.point.x.tobytes() == want.point.x.tobytes()
        assert got.point.W.tobytes() == want.point.W.tobytes()
        assert (got.status, got.iterations, got.trace) == (want.status, want.iterations, want.trace)
        assert got.final_residual.hex() == want.final_residual.hex()


def test_wide_solve_evaluates_G_once_per_iterate():
    # No search of these solves straddles the cap, so G runs only where
    # an iterate is refreshed: once at the start and once after each
    # nonzero step.  The line searches decide every step from the model, a
    # zero step keeps the last G, and the final check reuses it too.
    for seed in range(6):
        problem, calls = counting(make_norm_opt(50, 20, 200, b=40.0, seed=seed))
        s = math.ceil(0.05 * 200)
        res = solve(problem, SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30))
        assert calls[0] == 1 + sum(rec.step > 0 for rec in res.trace)


@pytest.mark.parametrize("pi,t_max", [(0.85, 50), (0.5, 10), (0.95, 3), (0.85, 1), (0.85, 0)])
def test_model_matches_plain_loop_on_random_directions(pi, t_max):
    rng = np.random.default_rng(11)
    for seed in range(4):
        problem = make_norm_opt(8, 3, 60, b=12.0, seed=seed)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 8)
            d = rng.standard_normal(8) * rng.choice([0.1, 1.0, 10.0])
            s = int(rng.integers(1, 10))
            for full_step_first in (False, True):
                got, want = both(problem, x, d, s, 0.5, pi, t_max, full_step_first)
                assert got == want


def test_model_bounds_hold_at_every_step():
    rng = np.random.default_rng(5)
    problem = make_norm_opt(12, 4, 80, b=15.0, seed=2)
    alphas = np.array([0.85 ** t for t in range(60)])
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 12)
        d = rng.standard_normal(12) * 3.0
        counts = problem.violations_along(x, d, problem.G(x))
        lo, hi = counts(alphas)
        for a, l, h in zip(alphas, lo, hi):
            assert l <= step_norm(problem.G(x + a * d)) <= h


def landing_on_zero(tmp_path, step):
    """Two equal columns that G puts exactly on zero at x + step*d.

    Returns (problem with a counted G, calls, x, d).  b is taken from G's
    own arithmetic at that point, so the model, rounded differently, reads
    a few ulps off zero there and its bounds straddle a cap of one column.
    Every larger step leaves both columns violating.
    """
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(4)
    x, d = rng.uniform(0.1, 0.5, 4), rng.uniform(2.0, 4.0, 4)
    path = tmp_path / "samples.csv"
    save_samples(np.tile(xi, (2, 1, 1)), path)
    y = x + step * d
    b = float(np.einsum("nmk,k->mn", load_samples(path).xi_sq, y * y)[0, 0])
    problem, calls = counting(load_samples(path, b=b))
    assert problem.G(y).tolist() == [[0.0, 0.0]]
    return problem, calls, x, d


def test_column_landing_exactly_on_zero_is_decided_by_G(tmp_path):
    # Both columns land on zero at the fourth step, 1/8.  With room for one
    # violating column, the model rejects 1, 1/2 and 1/4 on its own and
    # leaves 1/8 to G, which accepts it.
    problem, calls, x, d = landing_on_zero(tmp_path, 0.125)
    Z = problem.G(x)

    calls[0] = 0
    got = feasibility_line_search(problem, x, d, s=1, gamma=0.5, pi=0.5, Z=Z)
    assert got == (3, 0.125, False)
    assert calls[0] == 1          # the undecided step
    calls[0] = 0
    assert feasibility_line_search(problem, x, d, s=1, gamma=0.5, pi=0.5, Z=Z,
                                   full_step_first=True) == got
    assert calls[0] == 2          # the full step and the undecided one

    plain, plain_calls = counting(exact(problem))
    assert feasibility_line_search(plain, x, d, s=1, gamma=0.5, pi=0.5) == got
    assert plain_calls[0] == 4


def test_model_decides_the_full_step(tmp_path):
    problem, calls = counting(make_norm_opt(8, 3, 60, b=12.0, seed=0))
    x = np.full(8, 0.1)
    Z = problem.G(x)

    def search(d, **kw):
        calls[0] = 0
        got = feasibility_line_search(problem, x, d, 1, 0.5, 0.85, Z=Z, **kw)
        made = calls[0]
        assert got == feasibility_line_search(exact(problem), x, d, 1, 0.5, 0.85)
        return got, made

    # the model accepts the full step: no G call, one when G goes first
    short = np.full(8, 0.1)
    assert search(short) == ((0, 1.0, False), 0)
    assert search(short, full_step_first=True) == ((0, 1.0, False), 1)

    # the model rejects it and accepts a shorter step on its own
    long = np.full(8, 2.0)
    (t, _, stalled), n = search(long)
    assert t > 0 and not stalled and n == 0
    assert search(long, full_step_first=True)[1] == 1

    # the bounds straddle the cap at the full step, which G then accepts
    problem, calls, x, d = landing_on_zero(tmp_path, 1.0)
    Z = problem.G(x)
    for full_step_first in (False, True):
        calls[0] = 0
        assert feasibility_line_search(problem, x, d, s=1, gamma=0.5, pi=0.5, Z=Z,
                                       full_step_first=full_step_first) == (0, 1.0, False)
        assert calls[0] == 1


def test_model_reads_the_samples_in_place():
    problem = make_norm_opt(50, 20, 200, b=40.0, seed=0)
    rows = inspect.getclosurevars(problem.violations_along).nonlocals["xi_rows"]
    assert rows.shape == (200 * 20, 50)
    assert np.shares_memory(rows, problem.xi_sq)
    # a model build allocates a few (M, N) arrays, far less than the samples
    rng = np.random.default_rng(0)
    x, d = rng.standard_normal(50), rng.standard_normal(50)
    Z = problem.G(x)
    tracemalloc.start()
    try:
        assert problem.violations_along(x, d, Z) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < problem.xi_sq.nbytes // 4


def test_model_gives_way_to_the_plain_loop_on_huge_directions():
    problem = make_norm_opt(5, 2, 30, b=10.0, seed=3)
    x = np.full(5, 0.5)
    Z = problem.G(x)
    for d in (np.full(5, 1e200), np.array([np.nan, 0.0, 0.0, 0.0, 0.0])):
        counted, calls = counting(problem)
        with np.errstate(over="ignore", invalid="ignore"):
            assert problem.violations_along(x, d, Z) is None
            got = feasibility_line_search(counted, x, d, 1, 0.5, 0.85, 20, Z=Z)
        # every trial point has a non-finite G and counts as rejected
        assert got == (20, 0.0, True)
        assert calls[0] == 21
    # G values near overflow: the model declines, though G is still finite
    huge = make_norm_opt(5, 2, 30, b=1e301, seed=3)
    assert huge.violations_along(x, np.ones(5), huge.G(x)) is None


def exp_problem():
    """K = 1: f = (x0 - 1000)^2 and G = -exp(x0), which overflows past 709."""
    return ProblemInstance(
        K=1, M=1, N=1,
        f=lambda x: float((x[0] - 1000.0) ** 2),
        grad_f=lambda x: np.array([2.0 * (x[0] - 1000.0)]),
        hess_f=lambda x: np.array([[2.0]]),
        f_batch=lambda X: (X[:, 0] - 1000.0) ** 2,
        G=lambda x: np.array([[-np.exp(x[0])]]),
        G_batch=lambda X: -np.exp(X[:, :1, None]),
        grad_G_cols=lambda x, rows, cols: np.full((1, len(cols)), -np.exp(x[0])),
        weighted_hess_G=lambda x, rows, cols, w: np.array([[-np.exp(x[0]) * np.sum(w)]]),
    )


def test_nonfinite_trial_point_counts_as_rejected():
    problem = exp_problem()
    with np.errstate(over="ignore"):
        # the full step lands on x0 = 1000, where G is -inf
        assert feasibility_line_search(problem, np.zeros(1), np.array([1000.0]),
                                       s=1, gamma=3.0, pi=0.85) == (3, 0.85 * 0.85 * 0.85, False)
        res = solve(problem, SolverConfig(s=1))
    assert res.status == "LineSearchStalled"
    assert np.all(np.isfinite(res.point.x)) and res.point.x[0] < 710.0
