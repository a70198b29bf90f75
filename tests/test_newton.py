"""Reduced Newton step against the textbook assembly and scipy's LU wrappers.

``newton_direction`` writes its system into one array and calls LAPACK's
getrf/getrs directly.  The reference below assembles the same system with
``np.block`` and solves it through ``scipy.linalg.lu_factor``/``lu_solve``,
which reach the same routines, so every direction must match it bit for
bit, on systems recorded from solves and on hand-made ones.
"""
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import stepopt.solver as solver_mod
from stepopt.problems import ProblemInstance, make_norm_opt
from stepopt.solver import (
    SolverConfig,
    gamma_for,
    newton_direction,
    select_candidate_columns,
    solve,
)
from stepopt.stationarity import ActiveSet, PrimalDualPoint, active_set, stationarity_residual


def reference(problem, point, V, mu, pivot_tol=1e-12, Z=None):
    """The direction as np.block and scipy's lu_factor/lu_solve give it."""
    x, W = point.x, point.W
    if Z is None:
        Z = problem.G(x)
    g = problem.grad_f(x).astype(float, copy=True)
    L = len(V)
    w_v = W[V.rows, V.cols]
    theta = problem.hess_lagrangian(x, V.rows, V.cols, w_v)
    if L:
        Gv = problem.grad_G_cols(x, V.rows, V.cols)
        g += Gv @ w_v
        # -mu on the diagonal and +0.0 off it
        A = np.block([[theta, Gv], [Gv.T, np.diag(np.full(L, -mu))]])
        rhs = -np.concatenate([g, Z[V.rows, V.cols]])
    else:
        A = theta
        rhs = -g
    scale = np.abs(A).max()
    if not np.isfinite(scale) or scale == 0.0:
        return None, False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor warns on an exact-zero pivot
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    if np.abs(np.diag(lu)).min() < pivot_tol * scale:
        return None, False
    head = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    if not np.all(np.isfinite(head)):
        return None, False
    return head, True


def strict(problem, point, V, mu, Z=None, F=None):
    """``newton_direction`` with every warning raised as an error.

    The residual ``F`` is built from ``Z`` = G(x), or from a fresh G when
    ``Z`` is not given, unless it is passed; the gradient columns of V are
    always computed afresh.
    """
    Gv = problem.grad_G_cols(point.x, V.rows, V.cols) if len(V) else None
    if F is None:
        F = stationarity_residual(problem, point, V, Z=Z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return newton_direction(problem, point, V, mu, F, Gv)


def assert_same(got, want):
    assert got[1] == want[1]
    if want[1]:
        assert got[0].dtype == want[0].dtype
        assert got[0].tobytes() == want[0].tobytes()
    else:
        assert got[0] is None


def recorded_steps(problem, config, monkeypatch, start=None):
    """(problem, point, V, mu, G(x), F, Gv) of every Newton step that
    ``solve`` takes on ``problem``."""
    calls = []
    plain = solver_mod.newton_direction

    def recorder(problem, point, V, mu, F, Gv):
        # solve passes the residual and the gradient columns, not G(x), and
        # updates W in place after the step, so keep copies
        calls.append((problem, PrimalDualPoint(point.x.copy(), point.W.copy()),
                      V, mu, problem.G(point.x), F.copy(),
                      None if Gv is None else Gv.copy()))
        return plain(problem, point, V, mu, F, Gv)

    monkeypatch.setattr(solver_mod, "newton_direction", recorder)
    solve(problem, config, start)
    monkeypatch.undo()
    return calls


# the paper's shape at two thresholds and a smaller copy of the wide shape;
# on seeds 0-3 each reaches |V| = 0 and |V| >= 2
SHAPES = [
    (10, 1, 100, 14.0, 0.05),
    (10, 1, 100, 16.0, 0.01),
    (50, 20, 200, 40.0, 0.05),
]


@pytest.mark.parametrize("K,M,N,b,alpha", SHAPES)
def test_recorded_steps_match_the_reference_bit_for_bit(K, M, N, b, alpha, monkeypatch):
    s = math.ceil(alpha * N)
    sizes = []
    for seed in range(4):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=100)
        for args in recorded_steps(problem, config, monkeypatch):
            sizes.append(len(args[2]))
            assert_same(strict(*args[:4], Z=args[4]), reference(*args[:4], Z=args[4]))
            # a residual from a fresh G gives the same answer
            assert_same(strict(*args[:4]), reference(*args[:4], Z=args[4]))
    assert 0 in sizes and max(sizes) >= 2


@pytest.mark.parametrize("K,M,N,b,alpha", SHAPES)
def test_the_residual_solve_passes_is_current_and_gives_the_same_step(K, M, N, b, alpha,
                                                                     monkeypatch):
    # solve hands newton_direction the residual it built in refresh; a
    # zero step leaves x and W, so the next step reads the same residual.
    # From x = 1, over the budget, the first search stalls, and the -0.0
    # multipliers of the start reach the step after that zero step.  That
    # start activates most positions, so it runs on M = 1 only.
    s = math.ceil(alpha * N)
    starts = [None] + [PrimalDualPoint(np.ones(K), -np.zeros((M, N)))] * (M == 1)
    after_zero_step = 0
    for seed in range(4):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=100)
        for start in starts:
            steps = [rec.step for rec in solve(problem, config, start).trace]
            after_zero_step += steps[:-1].count(0.0)
            for args in recorded_steps(problem, config, monkeypatch, start):
                problem, point, V, mu, Z, F, _ = args
                assert F.tobytes() == stationarity_residual(problem, point, V, Z=Z).tobytes()
                assert_same(strict(problem, point, V, mu, F=F),
                            strict(problem, point, V, mu, Z=Z))
    assert after_zero_step >= 4


@pytest.mark.parametrize("K,M,N,b,alpha", SHAPES)
def test_solve_steps_from_the_unfused_layers(K, M, N, b, alpha, monkeypatch):
    # solve forms G(x) + tau*W once per iterate for the clamp columns and
    # V, and the gradient columns of V once for the residual and the step;
    # each must equal what the layer functions give from G(x) alone
    s = math.ceil(alpha * N)
    for seed in range(4):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=100)
        for problem, point, V, _, Z, F, Gv in recorded_steps(problem, config, monkeypatch):
            cols = select_candidate_columns(Z + config.tau * point.W, s)
            assert V == active_set(Z + config.tau * point.W, cols)
            assert F.tobytes() == stationarity_residual(problem, point, V, Z=Z).tobytes()
            if len(V):
                assert Gv.tobytes() == problem.grad_G_cols(point.x, V.rows, V.cols).tobytes()
            else:
                assert Gv is None


def constant_problem(theta, Gv, g, Z):
    """f with constant gradient g and Hessian theta; G = Z with gradients Gv.

    One row of constraints, so column n of Gv is the gradient of G[0, n].
    """
    K = len(g)
    return ProblemInstance(
        K=K, M=1, N=Z.shape[1],
        f=lambda x: float(g @ x + 0.5 * x @ theta @ x),
        grad_f=lambda x: g.copy(),
        hess_lagrangian=lambda x, rows, cols, w: theta.copy(),
        f_batch=lambda X: X @ g + 0.5 * np.einsum("pi,ij,pj->p", X, theta, X),
        G=lambda x: Z.copy(),
        G_batch=lambda X: np.broadcast_to(Z, (len(X),) + Z.shape).copy(),
        grad_G_cols=lambda x, rows, cols: Gv[:, cols],
    )


@pytest.mark.parametrize("L", [0, 2])
def test_exactly_singular_system_is_refused_without_a_warning(L):
    # theta = [[1, 1], [1, 1]], and two constraints with one gradient: getrf
    # meets an exact-zero pivot, which lu_factor reports as a LinAlgWarning
    problem = constant_problem(np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]),
                               np.array([1.0, -2.0]), np.zeros((1, 2)))
    point = PrimalDualPoint(np.zeros(2), np.zeros((1, 2)))
    V = ActiveSet.from_mask(np.full((1, 2), L == 2))
    assert strict(problem, point, V, 0.0) == (None, False)
    assert reference(problem, point, V, 0.0) == (None, False)


def test_small_relative_pivot_is_refused(monkeypatch):
    theta = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    problem = constant_problem(theta, np.zeros((2, 1)), np.array([1.0, -2.0]),
                               np.zeros((1, 1)))
    point = PrimalDualPoint(np.zeros(2), np.zeros((1, 1)))
    V = ActiveSet([], (1, 1))
    assert solver_mod._PIVOT_TOL == 1e-12
    assert strict(problem, point, V, 0.5) == (None, False)
    assert reference(problem, point, V, 0.5) == (None, False)
    # a looser pivot tolerance accepts the same system
    monkeypatch.setattr(solver_mod, "_PIVOT_TOL", 1e-16)
    assert_same(strict(problem, point, V, 0.5),
                reference(problem, point, V, 0.5, pivot_tol=1e-16))
    assert strict(problem, point, V, 0.5)[1]
