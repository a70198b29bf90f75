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
from stepopt.solver import SolverConfig, gamma_for, newton_direction, solve
from stepopt.stationarity import ActiveSet, PrimalDualPoint


def reference(problem, point, V, mu, pivot_tol=1e-12, Z=None):
    """The direction as np.block and scipy's lu_factor/lu_solve give it."""
    x, W = point.x, point.W
    if Z is None:
        Z = problem.G(x)
    g = problem.grad_f(x).astype(float, copy=True)
    L = len(V)
    if L:
        Gv = problem.grad_G_cols(x, V.rows, V.cols)
        w_v = W[V.rows, V.cols]
        g += Gv @ w_v
        theta = problem.hess_f(x) + problem.weighted_hess_G(x, V.rows, V.cols, w_v)
        A = np.block([[theta, Gv], [Gv.T, -mu * np.eye(L)]])
        rhs = -np.concatenate([g, Z[V.rows, V.cols]])
    else:
        A = problem.hess_f(x).astype(float, copy=True)
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
    crows, ccols = V.complement()
    return np.concatenate([head, -W[crows, ccols]]), True


def strict(problem, point, V, mu, pivot_tol=1e-12, Z=None):
    """``newton_direction`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return newton_direction(problem, point, V, mu, pivot_tol, Z=Z)


def assert_same(got, want):
    assert got[1] == want[1]
    if want[1]:
        assert got[0].dtype == want[0].dtype
        assert got[0].tobytes() == want[0].tobytes()
    else:
        assert got[0] is None


def recorded_steps(problem, config, monkeypatch):
    """Arguments of every Newton step that ``solve`` takes on ``problem``."""
    calls = []
    plain = solver_mod.newton_direction

    def recorder(problem, point, V, mu, pivot_tol=1e-12, Z=None):
        # solve updates W in place after the step, so keep copies
        calls.append((problem, PrimalDualPoint(point.x.copy(), point.W.copy()),
                      V, mu, pivot_tol, Z.copy()))
        return plain(problem, point, V, mu, pivot_tol, Z=Z)

    monkeypatch.setattr(solver_mod, "newton_direction", recorder)
    solve(problem, config)
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
            assert_same(strict(*args[:5], Z=args[5]), reference(*args[:5], Z=args[5]))
            # without Z, G is evaluated inside; same answer
            assert_same(strict(*args[:5]), reference(*args[:5], Z=args[5]))
    assert 0 in sizes and max(sizes) >= 2


def constant_problem(theta, Gv, g, Z):
    """f with constant gradient g and Hessian theta; G = Z with gradients Gv.

    One row of constraints, so column n of Gv is the gradient of G[0, n].
    """
    K = len(g)
    return ProblemInstance(
        K=K, M=1, N=Z.shape[1],
        f=lambda x: float(g @ x + 0.5 * x @ theta @ x),
        grad_f=lambda x: g.copy(),
        hess_f=lambda x: theta.copy(),
        f_batch=lambda X: X @ g + 0.5 * np.einsum("pi,ij,pj->p", X, theta, X),
        G=lambda x: Z.copy(),
        G_batch=lambda X: np.broadcast_to(Z, (len(X),) + Z.shape).copy(),
        grad_G_cols=lambda x, rows, cols: Gv[:, cols],
        weighted_hess_G=lambda x, rows, cols, w: np.zeros((K, K)),
    )


def test_off_diagonal_zeros_of_the_smoothing_block_are_negative():
    # The second constraint has a zero gradient, so its row of the system
    # is [0, -mu, -0.0] and its multiplier step comes out as a zero whose
    # sign follows the off-diagonal zero: -mu * eye(L) holds -0.0 there.
    problem = constant_problem(np.eye(1), np.array([[1.0, 0.0]]), np.array([-1.0]),
                               np.zeros((1, 2)))
    point = PrimalDualPoint(np.zeros(1), np.zeros((1, 2)))
    V = ActiveSet.from_mask(np.ones((1, 2), dtype=bool))
    want = reference(problem, point, V, 0.5)
    assert np.signbit(want[0][-1])
    assert_same(strict(problem, point, V, 0.5), want)


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


def test_small_relative_pivot_is_refused():
    theta = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    problem = constant_problem(theta, np.zeros((2, 1)), np.array([1.0, -2.0]),
                               np.zeros((1, 1)))
    point = PrimalDualPoint(np.zeros(2), np.zeros((1, 1)))
    V = ActiveSet([], (1, 1))
    assert strict(problem, point, V, 0.5) == (None, False)
    # a looser pivot tolerance accepts the same system
    assert_same(strict(problem, point, V, 0.5, pivot_tol=1e-16),
                reference(problem, point, V, 0.5, pivot_tol=1e-16))
    assert strict(problem, point, V, 0.5, pivot_tol=1e-16)[1]
