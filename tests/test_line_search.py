"""Feasibility line search: the violation model against calling G at every step.

For norm-design instances the search bounds violation counts from the
``violations_along`` model of G and calls G only where the bounds straddle
the cap.  Every test here compares that path with the plain loop, obtained
by removing the hook, and requires the same (t, alpha, stalled).
"""
import dataclasses
import math

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


def both(problem, x, d, s, gamma, pi, t_max=50):
    """(model result, plain-loop result) of one search."""
    Z = problem.G(x)
    got = feasibility_line_search(problem, x, d, s, gamma, pi, t_max, Z=Z)
    want = feasibility_line_search(exact(problem), x, d, s, gamma, pi, t_max)
    return got, want


def recorded_searches(problem, config, monkeypatch):
    """Arguments of every line search that ``solve`` runs on ``problem``."""
    calls = []
    plain = solver_mod.feasibility_line_search

    def recorder(problem, x, d_x, s, gamma, pi, t_max=50, Z=None):
        calls.append((x.copy(), d_x.copy(), s, gamma, pi, t_max))
        return plain(problem, x, d_x, s, gamma, pi, t_max, Z=Z)

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
        for args in recorded_searches(problem, config, monkeypatch):
            got, want = both(problem, *args)
            assert got == want
            t, _, stalled = want
            outcomes.add("stalled" if stalled else ("full" if t == 0 else "backtracked"))
    assert outcomes == reached


@pytest.mark.parametrize("pi,t_max", [(0.85, 50), (0.5, 10), (0.95, 3), (0.85, 1), (0.85, 0)])
def test_model_matches_plain_loop_on_random_directions(pi, t_max):
    rng = np.random.default_rng(11)
    for seed in range(4):
        problem = make_norm_opt(8, 3, 60, b=12.0, seed=seed)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 8)
            d = rng.standard_normal(8) * rng.choice([0.1, 1.0, 10.0])
            s = int(rng.integers(1, 10))
            got, want = both(problem, x, d, s, 0.5, pi, t_max)
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


def test_column_landing_exactly_on_zero_is_decided_by_G(tmp_path):
    # Two equal columns, and b chosen so that G puts both exactly on zero at
    # the fourth step, 1/8, while the model, rounded differently, reads a
    # few ulps off zero there.  The larger steps leave both columns
    # violating, which the room for one violating column rejects; the model
    # rejects 1/2 and 1/4 on its own and leaves 1/8 to G, which accepts it.
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(4)
    x, d = rng.uniform(0.1, 0.5, 4), rng.uniform(2.0, 4.0, 4)
    path = tmp_path / "samples.csv"
    save_samples(np.tile(xi, (2, 1, 1)), path)
    y = x + 0.125 * d
    b = float(np.einsum("nmk,k->mn", load_samples(path).xi_sq, y * y)[0, 0])
    problem, calls = counting(load_samples(path, b=b))
    assert problem.G(y).tolist() == [[0.0, 0.0]]
    Z = problem.G(x)

    calls[0] = 0
    got = feasibility_line_search(problem, x, d, s=1, gamma=0.5, pi=0.5, Z=Z)
    assert got == (3, 0.125, False)
    assert calls[0] == 2          # the full step and the undecided one

    plain, plain_calls = counting(exact(problem))
    assert feasibility_line_search(plain, x, d, s=1, gamma=0.5, pi=0.5) == got
    assert plain_calls[0] == 4


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
        G=lambda x: np.array([[-np.exp(x[0])]]),
        grad_G=lambda x, m, n: np.array([-np.exp(x[0])]),
        hess_G=lambda x, m, n: np.array([[-np.exp(x[0])]]),
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
