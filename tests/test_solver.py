"""Solver unit tests: candidate columns, directions, line search, full runs."""
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stepopt.geometry
import stepopt.solver as solver_mod
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

import references
from reshape_fixtures import constant_constraints, reshape_constraints


def quad_problem(M, N, c, offset):
    """f(x) = 0.5*||x||^2 + c.x with G(x) = col-major reshape of x plus offset."""
    K = M * N
    c = np.asarray(c, dtype=float)
    return ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * x @ x + c @ x),
        grad_f=lambda x: x + c,
        hess_lagrangian=lambda x, rows, cols, w: np.eye(K),
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
        hess_lagrangian=lambda x, rows, cols, w: np.zeros((K, K)),
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
        hess_lagrangian=lambda x, rows, cols, w: np.eye(K),
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
        SolverConfig(s=1, gamma=-0.5)


@pytest.mark.parametrize("field,value", [
    ("tau", math.inf), ("tau", math.nan), ("gamma", math.inf), ("gamma", math.nan),
    ("tol_scale", math.inf), ("tol_scale", math.nan), ("tol_scale", 0.0)])
def test_config_rejects_values_that_are_not_positive_and_finite(field, value):
    # an infinite tol_scale converged at once, and an infinite gamma lifted
    # the cap of the line search
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SolverConfig(s=5, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("s", 2.5), ("s", 2.0), ("s", True), ("max_it", 2.5), ("max_it", "3")])
def test_config_rejects_counts_that_are_not_integers(field, value):
    # s = 2.5 failed deep in the clamp-column choice, max_it = 2.5 ran 3 iterations
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{"s": 5, field: value})
    assert SolverConfig(s=np.int64(5), max_it=np.int32(3)).s == 5


def test_config_defaults():
    cfg = SolverConfig(s=5)
    assert cfg.tau == 0.75
    assert cfg.max_it == 2000
    assert cfg.tol_scale == 1e-9
    assert cfg.gamma is None
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "s", "tau", "max_it", "tol_scale", "gamma"]
    # the pivot threshold, the smoothing schedule and the backtracking are
    # constants of the solver, not knobs
    for name in ("pivot_tol", "rho", "mu_bar", "nu", "pi", "t_max"):
        with pytest.raises(TypeError):
            SolverConfig(s=5, **{name: 0.5})
    assert (solver_mod._RHO, solver_mod._MU_BAR, solver_mod._NU) == (1e-2, 1e-2, 0.999)
    assert (solver_mod._PI, solver_mod._T_MAX) == (0.85, 50)
    # one read-only schedule of trial steps, each the previous one times _PI
    steps = solver_mod._STEPS
    assert not steps.flags.writeable
    assert steps.tobytes() == np.array(references.steps(0.85, 50)).tobytes()
    assert list(inspect.signature(feasibility_line_search).parameters) == [
        "problem", "x", "d_x", "s", "gamma", "Z", "full_step_first"]


def test_config_is_frozen():
    # an assignment would skip the checks of __post_init__
    cfg = SolverConfig(s=5)
    for name, value in (("tau", -1.0), ("max_it", -3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.tau, cfg.max_it) == (0.75, 2000)
    assert cfg == SolverConfig(s=5)
    assert SolverConfig(s=5, gamma=0.6) == SolverConfig(s=5, gamma=0.6) != cfg


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
    F = stationarity_residual(problem, pt, V)
    d, ok = newton_direction(problem, pt, V, mu, F, problem.grad_G_cols(pt.x, V.rows, V.cols))
    assert ok and d.shape == (problem.K + len(V),)
    J = smoothed_jacobian(problem, pt, V, mu)
    full = np.linalg.solve(J, -F)
    assert np.allclose(d, full[:problem.K + len(V)], rtol=0, atol=1e-11)

    # the identity block of the Jacobian steps the multipliers off V by
    # -W, which solve applies in place of a longer direction
    crows, ccols = V.complement()
    assert np.array_equal(full[problem.K + len(V):], -pt.W[crows, ccols])


def test_newton_with_empty_active_set_is_plain_newton_on_f():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(4)
    problem = quad_problem(2, 2, c, -np.ones((2, 2)))
    x = rng.standard_normal(4)
    pt = PrimalDualPoint(x, np.zeros((2, 2)))
    V = ActiveSet([], (2, 2))

    d, ok = newton_direction(problem, pt, V, 1e-2, stationarity_residual(problem, pt, V), None)
    assert ok
    # hessian is the identity, so the direction is just the negated gradient
    assert d.shape == (4,)
    assert np.allclose(d, -(x + c), rtol=0, atol=1e-14)


def test_newton_flags_singular_system():
    problem = flat_problem(1, 2, [1.0, -2.0], -np.ones((1, 2)))
    pt = PrimalDualPoint(np.zeros(2), np.zeros((1, 2)))
    V = ActiveSet([], (1, 2))
    F = stationarity_residual(problem, pt, V)

    d, ok = newton_direction(problem, pt, V, 1e-2, F, None)
    assert not ok
    assert d is None

    assert np.array_equal(fallback_direction(F), -F)


# --------------------------------------------------- feasibility_line_search

def halving(monkeypatch, t_max):
    """Make the line search try the steps 1, 1/2, 1/4, ..., t_max + 1 of them."""
    monkeypatch.setattr(solver_mod, "_STEPS", np.array(references.steps(0.5, t_max)))


def test_line_search_finds_minimal_exponent(monkeypatch):
    halving(monkeypatch, 10)
    problem = quad_problem(1, 3, np.zeros(3), [[-1.0, -1.0, 0.5]])
    x = np.zeros(3)
    d_x = np.array([2.0, 0.0, 0.0])
    # full step makes column 0 violate on top of column 2; half step parks
    # column 0 exactly at zero, which does not count
    t, alpha, stalled = feasibility_line_search(
        problem, x, d_x, s=1, gamma=0.4, Z=problem.G(x))
    assert (t, alpha, stalled) == (1, 0.5, False)


def test_line_search_accepts_zero_exponent_within_budget():
    problem = quad_problem(1, 3, np.zeros(3), [[-1.0, -1.0, 0.5]])
    t, alpha, stalled = feasibility_line_search(
        problem, np.zeros(3), np.zeros(3), s=1, gamma=0.4, Z=problem.G(np.zeros(3)))
    assert (t, alpha, stalled) == (0, 1.0, False)


def test_line_search_accepts_exactly_at_the_bound():
    problem = quad_problem(1, 3, np.zeros(3), [[0.5, 0.5, -1.0]])
    # two violating columns, bound (1 + 1) * 1 = 2: boundary counts as inside
    t, alpha, stalled = feasibility_line_search(
        problem, np.zeros(3), np.zeros(3), s=1, gamma=1.0, Z=problem.G(np.zeros(3)))
    assert (t, alpha, stalled) == (0, 1.0, False)


def test_line_search_returns_zero_step_when_exhausted(monkeypatch):
    problem = quad_problem(1, 3, np.zeros(3), [[0.5, 0.5, 0.5]])

    def search():
        return feasibility_line_search(problem, np.zeros(3), np.zeros(3), s=1, gamma=0.4,
                                       Z=problem.G(np.zeros(3)))

    assert search() == (50, 0.0, True)
    halving(monkeypatch, 5)
    assert search() == (5, 0.0, True)


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


# finite values with both signed zeros, so that a sign flip shows in the bytes
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_multiplier_update_matches_the_stacked_update(M, N, data):
    # solve steps the multipliers on V by the direction and those off V by
    # -W, in place; the stacked direction of K + M*N entries gave the same
    # bytes, for Newton and fallback directions.  A zero step leaves x and
    # W as they are, signed zeros included.
    K = M * N
    problem = quad_problem(M, N, data.draw(arrays(float, K, elements=VALUES)),
                           data.draw(arrays(float, (M, N), elements=VALUES)))
    start = PrimalDualPoint(data.draw(arrays(float, K, elements=VALUES)),
                            data.draw(arrays(float, (M, N), elements=VALUES)))
    alpha = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    refuse = data.draw(st.booleans())
    plain_newton, plain_fallback = solver_mod.newton_direction, solver_mod.fallback_direction
    seen = {}

    def newton(problem, point, V, mu, F, Gv):
        seen.update(x=point.x.copy(), W=point.W.copy(), V=V, F=F.copy())
        seen["d"], solvable = (None, False) if refuse else plain_newton(problem, point, V,
                                                                         mu, F, Gv)
        return seen["d"], solvable

    def fallback(F):
        seen["d"] = plain_fallback(F)
        return seen["d"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "newton_direction", newton)
        patch.setattr(solver_mod, "fallback_direction", fallback)
        patch.setattr(solver_mod, "feasibility_line_search",
                      lambda problem, x, d_x, s, gamma, Z, full_step_first=False:
                      (0, alpha, False))
        res = solve(problem, SolverConfig(s=1, max_it=1), start)
    if not seen:  # converged at the start
        return
    x, W, V, F, d = (seen[key] for key in ("x", "W", "V", "F", "d"))
    assert d.shape == (K + len(V),)
    if refuse:
        assert bits(d) == bits(-F[:K + len(V)])
    if alpha == 0.0:
        assert bits(res.point.W) == bits(W) and bits(res.point.x) == bits(x)
    else:
        assert bits(res.point.W) == bits(references.stacked_update(W, V, d[K:], alpha))
        assert bits(res.point.x) == bits(x + alpha * d[:K])


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


def test_solve_aborts_when_the_multiplier_shift_overflows():
    # G(x) and W are finite, but G(x) + tau*W is not; the suite turns a
    # RuntimeWarning into an error, so this also checks that none is emitted
    problem = make_norm_opt(10, 1, 5, b=1.0, seed=0)
    start = PrimalDualPoint(np.full(10, 3e153), np.full((1, 5), 1.7e308))
    assert np.isfinite(problem.G(start.x)).all()
    with pytest.raises(SolverAbort, match="overflow"):
        solve(problem, SolverConfig(s=1), start)


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
        lam = Z + cfg.tau * pt.W
        V = active_set(lam, select_candidate_columns(lam, s))
        assert res.active == V
        assert res.final_residual == float(np.linalg.norm(stationarity_residual(problem, pt, V, Z=Z)))
    assert zero_steps > 0


def test_zero_steps_return_the_start_byte_for_byte(monkeypatch):
    # Every column violates and the model says so at every trial step, so
    # both searches stall without calling G.  A zero step leaves x and W as
    # they are, the -0.0 entries of the start included, and evaluates
    # nothing: G only at the start, no G_step, and the one residual that
    # the start's refresh builds.
    K, M, N = 2, 1, 8
    target = np.ones(K)
    calls = {"G": 0, "G_step": 0, "residual": 0}

    def G(x):
        calls["G"] += 1
        return np.ones((M, N))

    def G_step(x, d, alpha, Z, ceiling):
        calls["G_step"] += 1
        return G(x + alpha * d)

    def residual(*args, **kwargs):
        calls["residual"] += 1
        return stationarity_residual(*args, **kwargs)

    problem = ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * np.sum((x - target) ** 2)),
        grad_f=lambda x: x - target,
        hess_lagrangian=lambda x, rows, cols, w: np.eye(K),
        f_batch=lambda X: 0.5 * np.sum((X - target) ** 2, axis=1),
        G=G,
        G_batch=lambda X: np.ones((len(X), M, N)),
        grad_G_cols=lambda x, rows, cols: np.zeros((K, len(rows))),
        violations_along=lambda x, d, Z, alphas, cap: (
            np.full(len(alphas), N), np.full(len(alphas), N)),
        G_step=G_step,
    )
    monkeypatch.setattr(solver_mod, "stationarity_residual", residual)
    x0 = np.array([-0.0, 0.5])
    W0 = np.array([[-0.0, 0.0, 1.0, -0.0, 0.0, -0.0, 2.0, -0.0]])
    res = solve(problem, SolverConfig(s=1, gamma=0.5), PrimalDualPoint(x0, W0))

    assert res.status == "LineSearchStalled"
    assert [rec.step for rec in res.trace] == [0.0, 0.0]
    assert bits(res.point.x) == bits(x0) and bits(res.point.W) == bits(W0)
    assert calls == {"G": 1, "G_step": 0, "residual": 1}


def test_solve_trace_records_prestep_state():
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=17)
    cfg = SolverConfig(s=5, gamma=gamma_for(0.05, 5))
    res = solve(problem, cfg)

    first = res.trace[0]
    pt0 = PrimalDualPoint(np.zeros(10), np.zeros((1, 100)))
    F0 = stationarity_residual(problem, pt0, ActiveSet([], (1, 100)))
    assert first.iter == 0
    assert first.residual == pytest.approx(float(np.linalg.norm(F0)), rel=0, abs=0)
    assert first.objective == pytest.approx(problem.f(pt0.x))
    assert first.violations == 0  # all columns start at -b
    assert first.mu == pytest.approx(min(solver_mod._MU_BAR, solver_mod._RHO * first.residual))
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
