"""Solver unit tests: candidate columns, directions, line search, full runs."""
import dataclasses
import math

import numpy as np
import pytest

import stepopt.geometry
from stepopt.geometry import candidate_sets, step_norm
from stepopt.problems import (
    ProblemInstance,
    load_samples,
    make_counterexample,
    make_norm_opt,
    save_samples,
)
from stepopt.solver import (
    IterationRecord,
    SolverAbort,
    SolverConfig,
    fallback_direction,
    feasibility_line_search,
    gamma_for,
    newton_direction,
    quadratic_rate_ratios,
    select_candidate_columns,
    solve,
)
from stepopt.stationarity import (
    ActiveSet,
    PrimalDualPoint,
    active_set,
    check_tau_stationary,
    smoothed_jacobian,
    stationarity_residual,
)

from reshape_fixtures import constant_constraints, reshape_constraints


def quad_problem(M, N, c, offset):
    """f(x) = 0.5*||x||^2 + c.x with G(x) = col-major reshape of x plus offset."""
    K = M * N
    c = np.asarray(c, dtype=float)
    return ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * x @ x + c @ x),
        grad_f=lambda x: x + c,
        hess_f=lambda x: np.eye(K),
        f_batch=lambda X: 0.5 * (X * X).sum(axis=1) + X @ c,
        **reshape_constraints(M, N, offset),
    )


def flat_problem(M, N, c, offset):
    """Linear objective c.x, same constraints as quad_problem; zero curvature."""
    K = M * N
    c = np.asarray(c, dtype=float)
    return ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(c @ x),
        grad_f=lambda x: c.copy(),
        hess_f=lambda x: np.zeros((K, K)),
        f_batch=lambda X: X @ c,
        **reshape_constraints(M, N, offset),
    )


def slack_problem(target, M=1, N=2):
    """f(x) = 0.5*||x - target||^2 with a constant, strictly negative row."""
    target = np.asarray(target, dtype=float)
    K = target.size

    return ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * np.sum((x - target) ** 2)),
        grad_f=lambda x: x - target,
        hess_f=lambda x: np.eye(K),
        f_batch=lambda X: 0.5 * np.sum((X - target) ** 2, axis=1),
        **constant_constraints(K, -np.ones((M, N))),
    )


def record(i, r):
    return IterationRecord(iter=i, residual=r, objective=0.0, violations=0,
                           step=1.0, mu=0.0, direction_kind="newton")


# ---------------------------------------------------------------- gamma_for

def test_gamma_for_anchor_levels():
    assert gamma_for(0.01, 5) == pytest.approx(2.0 / 5.0)
    assert gamma_for(0.05, 5) == pytest.approx(3.0 / 5.0)
    assert gamma_for(0.1, 5) == pytest.approx(4.0 / 5.0)
    assert gamma_for(0.05, 1) == pytest.approx(3.0)


def test_gamma_for_snaps_to_nearest_anchor():
    assert gamma_for(0.02, 1) == pytest.approx(2.0)
    assert gamma_for(0.04, 1) == pytest.approx(3.0)
    assert gamma_for(0.09, 1) == pytest.approx(4.0)


def test_gamma_for_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gamma_for(0.0, 5)
    with pytest.raises(ValueError):
        gamma_for(1.0, 5)
    with pytest.raises(ValueError):
        gamma_for(0.05, 0)


# ------------------------------------------------------------- SolverConfig

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(s=0)
    with pytest.raises(ValueError):
        SolverConfig(s=1, tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(s=1, nu=1.0)
    with pytest.raises(ValueError):
        SolverConfig(s=1, pi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(s=1, gamma=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(s=1, t_max=-1)


def test_config_defaults():
    cfg = SolverConfig(s=5)
    assert cfg.tau == 0.75
    assert cfg.max_it == 2000
    assert cfg.tol_scale == 1e-9
    assert cfg.gamma is None


# --------------------------------------------------- select_candidate_columns

def test_select_candidate_columns_worked_matrix():
    Z = np.array([[2.0, 2.0, 0.0, -1.0],
                  [0.0, -1.0, -2.0, -3.0]])
    # budget 1: columns 0 and 1 tie on positive-part norm, keep the lower
    # index, clamp the other together with the zero-max column
    assert np.array_equal(select_candidate_columns(Z, 1), [1, 2])
    # budget 2 keeps both violating columns
    assert np.array_equal(select_candidate_columns(Z, 2), [2])
    assert np.array_equal(select_candidate_columns(Z, 3), [2])


def test_select_candidate_columns_all_negative():
    Z = -np.ones((2, 4))
    assert select_candidate_columns(Z, 1).size == 0


# --------------------------------------------------------- newton_direction

def test_newton_matches_dense_jacobian_solve():
    rng = np.random.default_rng(3)
    problem = quad_problem(2, 3, rng.standard_normal(6), 0.3 * np.ones((2, 3)))
    pt = PrimalDualPoint(rng.standard_normal(6), rng.standard_normal((2, 3)))
    V = ActiveSet([(0, 1), (1, 1), (0, 2)], (2, 3))

    mu = 7e-3
    d, ok = newton_direction(problem, pt, V, mu)
    assert ok
    J = smoothed_jacobian(problem, pt, V, mu)
    F = stationarity_residual(problem, pt, V)
    assert np.allclose(d, np.linalg.solve(J, -F), rtol=0, atol=1e-11)

    crows, ccols = V.complement()
    assert np.array_equal(d[problem.K + len(V):], -pt.W[crows, ccols])


def test_newton_with_empty_active_set_is_plain_newton_on_f():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(4)
    problem = quad_problem(2, 2, c, -np.ones((2, 2)))
    x = rng.standard_normal(4)
    pt = PrimalDualPoint(x, np.zeros((2, 2)))
    V = ActiveSet([], (2, 2))

    d, ok = newton_direction(problem, pt, V, mu=1e-2)
    assert ok
    # hessian is the identity, so the head is just the negated gradient
    assert np.allclose(d[:4], -(x + c), rtol=0, atol=1e-14)
    assert np.array_equal(d[4:], np.zeros(4))


def test_newton_flags_singular_system():
    problem = flat_problem(1, 2, [1.0, -2.0], -np.ones((1, 2)))
    pt = PrimalDualPoint.zeros(problem)
    V = ActiveSet([], (1, 2))

    d, ok = newton_direction(problem, pt, V, mu=1e-2)
    assert not ok
    assert d is None

    fb = fallback_direction(problem, pt, V)
    assert np.array_equal(fb, -stationarity_residual(problem, pt, V))


# --------------------------------------------------- feasibility_line_search

def test_line_search_finds_minimal_exponent():
    problem = quad_problem(1, 3, np.zeros(3), [[-1.0, -1.0, 0.5]])
    x = np.zeros(3)
    d_x = np.array([2.0, 0.0, 0.0])
    # full step makes column 0 violate on top of column 2; half step parks
    # column 0 exactly at zero, which does not count
    t, alpha, stalled = feasibility_line_search(
        problem, x, d_x, s=1, gamma=0.4, pi=0.5, t_max=10)
    assert (t, alpha, stalled) == (1, 0.5, False)


def test_line_search_accepts_zero_exponent_within_budget():
    problem = quad_problem(1, 3, np.zeros(3), [[-1.0, -1.0, 0.5]])
    t, alpha, stalled = feasibility_line_search(
        problem, np.zeros(3), np.zeros(3), s=1, gamma=0.4, pi=0.5, t_max=10)
    assert (t, alpha, stalled) == (0, 1.0, False)


def test_line_search_accepts_exactly_at_the_bound():
    problem = quad_problem(1, 3, np.zeros(3), [[0.5, 0.5, -1.0]])
    # two violating columns, bound (1 + 1) * 1 = 2: boundary counts as inside
    t, alpha, stalled = feasibility_line_search(
        problem, np.zeros(3), np.zeros(3), s=1, gamma=1.0, pi=0.5, t_max=10)
    assert (t, alpha, stalled) == (0, 1.0, False)


def test_line_search_returns_zero_step_when_exhausted():
    problem = quad_problem(1, 3, np.zeros(3), [[0.5, 0.5, 0.5]])
    t, alpha, stalled = feasibility_line_search(
        problem, np.zeros(3), np.zeros(3), s=1, gamma=0.4, pi=0.5, t_max=5)
    assert (t, alpha, stalled) == (5, 0.0, True)


# -------------------------------------------------------------------- solve

def test_solve_slack_instance_converges_in_one_step():
    target = np.array([1.5, -2.0])
    problem = slack_problem(target)
    res = solve(problem, SolverConfig(s=1))

    assert res.status == "Converged"
    assert res.iterations == 1
    assert np.allclose(res.point.x, target, rtol=0, atol=1e-12)
    assert res.final_report.satisfied
    assert res.trace[0].direction_kind == "newton"


def test_solve_counterexample_reaches_global_minimum():
    problem = make_counterexample()
    res = solve(problem, SolverConfig(s=1))

    assert res.status == "Converged"
    assert np.allclose(res.point.x, [2.0, 0.0], rtol=0, atol=1e-10)
    assert problem.f(res.point.x) <= 1e-16
    assert step_norm(problem.G(res.point.x)) <= 1
    assert res.final_report.satisfied


def test_solve_from_stationary_start_takes_no_steps():
    problem = make_counterexample()
    start = PrimalDualPoint(np.array([2.0, 0.0]), np.zeros((1, 2)))
    res = solve(problem, SolverConfig(s=1), start=start)

    assert res.status == "Converged"
    assert res.iterations == 0
    assert res.trace == ()
    assert np.array_equal(res.point.x, start.x)


@pytest.mark.parametrize("x_shape,W_shape", [
    ((10,), (40,)),
    ((10,), (1, 40)),
    ((10,), (40, 3)),
    ((11,), (3, 40)),
    ((1, 10), (3, 40)),
])
def test_solve_rejects_a_start_of_the_wrong_shape(x_shape, W_shape):
    problem = make_norm_opt(10, 3, 40, seed=0)
    start = PrimalDualPoint(np.zeros(x_shape), np.zeros(W_shape))
    with pytest.raises(ValueError, match=r"x of shape \(10,\) and W of shape \(3, 40\)"):
        solve(problem, SolverConfig(s=2), start=start)


@pytest.mark.parametrize("part", ["x", "W"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_non_finite_start(part, value):
    problem = make_norm_opt(10, 3, 40, seed=0)
    x, W = np.zeros(10), np.zeros((3, 40))
    (x if part == "x" else W).flat[3] = value
    with pytest.raises(ValueError, match="start has non-finite entries"):
        solve(problem, SolverConfig(s=2), start=PrimalDualPoint(x, W))


def test_solve_uses_fallback_when_curvature_vanishes():
    problem = flat_problem(1, 2, [1.0, 0.5], -10.0 * np.ones((1, 2)))
    res = solve(problem, SolverConfig(s=1, max_it=3))

    assert res.status == "MaxIterations"
    assert len(res.trace) == 3
    assert all(rec.direction_kind == "fallback" for rec in res.trace)
    # constant gradient: the residual never moves
    assert res.final_residual == pytest.approx(np.hypot(1.0, 0.5))


def test_solve_max_iterations_budget():
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    res = solve(problem, SolverConfig(s=5, max_it=0, gamma=gamma_for(0.05, 5)))
    assert res.status == "MaxIterations"
    assert res.iterations == 0
    assert res.trace == ()


@pytest.mark.parametrize("max_it", [0, 1, 2, 5])
def test_solve_runs_at_most_max_it_iterations(max_it):
    # the zero-curvature instance never converges, so only the cap stops it
    problem = flat_problem(1, 2, [1.0, 0.5], -10.0 * np.ones((1, 2)))
    res = solve(problem, SolverConfig(s=1, max_it=max_it))

    assert res.status == "MaxIterations"
    assert res.iterations == len(res.trace) <= max_it
    small = solve(make_norm_opt(3, 1, 20, seed=1), SolverConfig(s=2, max_it=max_it))
    assert small.iterations == len(small.trace) <= max_it


def test_solve_aborts_on_nonfinite_constraints():
    problem = slack_problem([1.0, 1.0])
    bad = dataclasses.replace(problem, G=lambda x: np.full((problem.M, problem.N), np.nan))
    with pytest.raises(SolverAbort):
        solve(bad, SolverConfig(s=1))


def test_solve_norm_design_instance():
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    cfg = SolverConfig(s=5, gamma=gamma_for(0.05, 5))
    res = solve(problem, cfg)

    tol = cfg.tol_scale * problem.K * problem.M * problem.N
    assert res.status == "Converged"
    assert res.final_residual < tol
    assert res.final_report.satisfied
    Z = problem.G(res.point.x)
    assert int(np.count_nonzero(Z.max(axis=0) > tol)) <= 5


def test_solve_stalls_cleanly_when_budget_blocks_progress():
    # tight threshold: most sample columns violate at the unconstrained
    # minimizer, so backtracking cannot keep the relaxed budget and the run
    # must stop with the stall status instead of looping
    problem = make_norm_opt(10, 1, 100, b=10.0, seed=0)
    cfg = SolverConfig(s=5, gamma=gamma_for(0.05, 5))
    res = solve(problem, cfg)

    assert res.status == "LineSearchStalled"
    bound = (gamma_for(0.05, 5) + 1.0) * 5
    assert step_norm(problem.G(res.point.x)) <= bound
    assert res.trace[-1].step == 0.0


@pytest.mark.parametrize("shape", [(50, 20, 200, 40.0), (10, 1, 100, 14.0)],
                         ids=["K50-M20-N200", "paper"])
def test_zero_steps_keep_the_state_of_the_returned_point(shape):
    # A zero step reuses G, V and the residual norm of the previous refresh;
    # they must equal what a fresh G gives at the returned point.
    K, M, N, b = shape
    s = math.ceil(0.05 * N)
    cfg = SolverConfig(s=s, gamma=gamma_for(0.05, s))
    zero_steps = 0
    for seed in range(6):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        res = solve(problem, cfg)
        zero_steps += sum(rec.step == 0.0 for rec in res.trace)
        pt = res.point
        Z = problem.G(pt.x)
        V = active_set(problem, pt, cfg.tau, select_candidate_columns(Z + cfg.tau * pt.W, s), Z=Z)
        assert res.active == V
        assert res.final_residual == float(np.linalg.norm(stationarity_residual(problem, pt, V, Z=Z)))
    assert zero_steps > 0


def test_zero_step_that_flips_a_zero_of_x_refreshes():
    # G reads the sign of x[0]: -0.0 and +0.0 give different constraint
    # matrices, each with more violating columns than the cap allows, so
    # every search stalls.  The first zero step turns x[0] = -0.0 into
    # +0.0 (the direction there is positive), so G must be evaluated again.
    K, M, N = 2, 1, 8
    neg = np.where(np.arange(N) < 6, 1.0, -1.0)[None, :]
    pos = neg[:, ::-1] * 2.0
    target = np.ones(K)

    def G(x):
        return (neg if np.signbit(x[0]) else pos).copy()

    problem = ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * np.sum((x - target) ** 2)),
        grad_f=lambda x: x - target,
        hess_f=lambda x: np.eye(K),
        f_batch=lambda X: 0.5 * np.sum((X - target) ** 2, axis=1),
        G=G,
        G_batch=lambda X: np.stack([G(x) for x in X]),
        grad_G_cols=lambda x, rows, cols: np.zeros((K, len(rows))),
        weighted_hess_G=lambda x, rows, cols, w: np.zeros((K, K)),
    )
    cfg = SolverConfig(s=1, gamma=0.5)
    res = solve(problem, cfg, start=PrimalDualPoint(np.array([-0.0, 0.0]), np.zeros((M, N))))

    assert res.status == "LineSearchStalled"
    assert [rec.step for rec in res.trace] == [0.0, 0.0]
    assert res.trace[0].violations == 6 and res.trace[1].violations == 6
    pt = res.point
    Z = problem.G(pt.x)
    assert not np.signbit(pt.x[0]) and np.array_equal(Z, pos)
    V = active_set(problem, pt, cfg.tau, select_candidate_columns(Z + cfg.tau * pt.W, 1), Z=Z)
    assert res.active == V and V.cols.tolist() == [3, 4, 5, 6, 7]
    assert res.final_residual == float(np.linalg.norm(stationarity_residual(problem, pt, V, Z=Z)))


def test_solve_trace_records_prestep_state():
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    cfg = SolverConfig(s=5, gamma=gamma_for(0.05, 5))
    res = solve(problem, cfg)

    first = res.trace[0]
    pt0 = PrimalDualPoint.zeros(problem)
    F0 = stationarity_residual(problem, pt0, ActiveSet([], (1, 100)))
    assert first.iter == 0
    assert first.residual == pytest.approx(float(np.linalg.norm(F0)), rel=0, abs=0)
    assert first.objective == pytest.approx(problem.f(pt0.x))
    assert first.violations == 0  # all columns start at -b
    assert first.mu == pytest.approx(min(cfg.mu_bar, cfg.rho * first.residual))
    assert [rec.iter for rec in res.trace] == list(range(len(res.trace)))
    assert res.final_residual < first.residual


def test_solve_is_bitwise_deterministic():
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    cfg = SolverConfig(s=5, gamma=gamma_for(0.05, 5))
    first = solve(problem, cfg)
    second = solve(make_norm_opt(10, 1, 100, b=14.0, seed=17), cfg)

    assert first.status == second.status
    assert first.iterations == second.iterations
    assert np.array_equal(first.point.x, second.point.x)
    assert np.array_equal(first.point.W, second.point.W)
    assert first.final_residual == second.final_residual
    assert first.trace == second.trace


# ------------------------------------------------------ quadratic_rate_ratios

def test_rate_ratios_flag_quadratic_decay():
    trace = [record(i, r) for i, r in enumerate([1e-1, 1e-2, 1e-4])]
    ratios = quadratic_rate_ratios(trace, final_residual=1e-8)
    assert [i for i, _ in ratios] == [1, 2, 3]
    assert all(r == pytest.approx(1.0) for _, r in ratios)


def test_rate_ratios_grow_on_linear_decay():
    trace = [record(i, 0.5 ** i) for i in range(6)]
    ratios = [r for _, r in quadratic_rate_ratios(trace)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > ratios[0]


def test_rate_ratios_skip_exact_zeros_and_empty_traces():
    trace = [record(i, r) for i, r in enumerate([1e-1, 1e-2])]
    assert len(quadratic_rate_ratios(trace, final_residual=0.0)) == 1
    assert quadratic_rate_ratios([]) == []
    assert quadratic_rate_ratios([], final_residual=1.0) == []


@pytest.mark.parametrize("copies,s", [(60, 5), (20, 10)])
def test_solve_never_enumerates_tied_scenarios(tmp_path, monkeypatch, copies, s):
    # The largest of 100 scenarios repeated: from x = 3*1 all its copies
    # violate with one norm, at the s-th place, so the clamp family has
    # C(copies, s) members.  The solver and its final check must decide
    # without listing them; a family cap of 1 makes any listing raise.
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((100, 1, 10))
    xi[:copies] = xi[np.argmax((xi ** 2).sum(axis=(1, 2)))]
    save_samples(xi, tmp_path / "samples.csv")
    problem = load_samples(tmp_path / "samples.csv")
    start = PrimalDualPoint(np.full(10, 3.0), np.zeros((1, 100)))
    monkeypatch.setattr(stepopt.geometry, "FAMILY_CAP", 1)
    with pytest.raises(RuntimeError, match="tie explosion"):
        candidate_sets(problem.G(start.x), s)
    res = solve(problem, SolverConfig(s=s), start)
    assert res.status in ("Converged", "MaxIterations", "LineSearchStalled")
    again = check_tau_stationary(problem, res.point, 0.75, s,
                                 tol=1e-9 * problem.K * problem.M * problem.N)
    assert (again.satisfied, again.residual) == (res.final_report.satisfied,
                                                 res.final_report.residual)
