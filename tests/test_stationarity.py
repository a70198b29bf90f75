"""Stationarity residual, smoothed Jacobian, and the three optimality checks."""
import dataclasses
import math

import numpy as np
import pytest

from stepopt.geometry import column_partition, is_candidate_set, project_step
from stepopt.problems import ProblemInstance, make_counterexample, make_norm_opt
from stepopt.stationarity import (
    ActiveSet,
    PrimalDualPoint,
    active_set,
    check_bkkt,
    check_kkt,
    check_tau_stationary,
    max_stationary_tau,
    smoothed_jacobian,
    stationarity_residual,
)

import references
from reshape_fixtures import reshape_constraints


def linear_problem(M, N, c, offset=None):
    """G(x) reshapes x column-major into (M, N) plus a constant; f = <c, x>.

    Constraint gradients are unit vectors, so constructed points can realize
    any target constraint matrix exactly.
    """
    K = M * N
    c = np.asarray(c, dtype=float)
    offset = np.zeros((M, N)) if offset is None else offset
    return ProblemInstance(K=K, M=M, N=N,
                           f=lambda x: float(c @ x),
                           grad_f=lambda x: c.copy(),
                           hess_lagrangian=lambda x, rows, cols, w: np.zeros((K, K)),
                           f_batch=lambda X: X @ c,
                           **reshape_constraints(M, N, offset))


class TestActiveSet:
    def test_column_major_order(self):
        V = ActiveSet([(1, 1), (0, 0), (0, 1)], (2, 3))
        assert V.pairs == ((0, 0), (0, 1), (1, 1))
        crows, ccols = V.complement()
        assert list(zip(crows.tolist(), ccols.tolist())) == [(1, 0), (0, 2), (1, 2)]

    def test_rejects_duplicates_and_bounds(self):
        with pytest.raises(ValueError):
            ActiveSet([(0, 0), (0, 0)], (2, 2))
        with pytest.raises(ValueError):
            ActiveSet([(2, 0)], (2, 2))

    def test_mask_round_trip(self):
        rng = np.random.default_rng(3)
        mask = rng.random((4, 5)) < 0.4
        V = ActiveSet.from_mask(mask)
        np.testing.assert_array_equal(V.mask(), mask)

    def test_from_lambda_matrix(self):
        # W = 0 and all zero-max columns: active positions are the zeros
        p = make_counterexample()
        pt = PrimalDualPoint(np.array([1.0, 1.0]), np.zeros((1, 2)))
        lam = p.G(pt.x) + 0.75 * pt.W
        V = active_set(lam, [0, 1])
        assert V.pairs == ((0, 0), (0, 1))
        # restricting to one column keeps only that column's entries
        V1 = active_set(lam, [1])
        assert V1.pairs == ((0, 1),)


class TestResidual:
    def test_counterexample_fixture(self):
        # at x=(1,1), W=0 the gradient block is (-2, 0), constraint block is
        # the two zeros, complement is empty: norm exactly 2
        p = make_counterexample()
        pt = PrimalDualPoint(np.array([1.0, 1.0]), np.zeros((1, 2)))
        V = ActiveSet([(0, 0), (0, 1)], (1, 2))
        F = stationarity_residual(p, pt, V)
        np.testing.assert_allclose(F, [-2.0, 0.0, 0.0, 0.0], atol=1e-15)
        assert np.linalg.norm(F) == pytest.approx(2.0, abs=1e-12)

    def test_block_layout(self):
        p = make_norm_opt(3, 2, 4, seed=0)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 1.5, size=3)
        W = rng.uniform(-1.0, 1.0, size=(2, 4))
        pt = PrimalDualPoint(x, W)
        V = ActiveSet([(0, 1), (1, 1), (0, 3)], (2, 4))
        F = stationarity_residual(p, pt, V)
        assert F.shape == (3 + 8,)
        Z = p.G(x)
        np.testing.assert_allclose(F[3:6], [Z[0, 1], Z[1, 1], Z[0, 3]])
        crows, ccols = V.complement()
        np.testing.assert_allclose(F[6:], W[crows, ccols])

    def test_jacobian_matches_finite_differences(self):
        p = make_norm_opt(4, 2, 5, seed=1)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(0.5, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
            W = rng.uniform(-1.0, 1.0, size=(2, 5))
            V = ActiveSet.from_mask(rng.random((2, 5)) < 0.4)

            def F_of(u):
                xx = u[:4]
                WW = np.zeros((2, 5))
                if len(V):
                    WW[V.rows, V.cols] = u[4:4 + len(V)]
                crows, ccols = V.complement()
                WW[crows, ccols] = u[4 + len(V):]
                return stationarity_residual(p, PrimalDualPoint(xx, WW), V)

            u0 = np.concatenate([x, W[V.rows, V.cols], W[V.complement()]])
            J = smoothed_jacobian(p, PrimalDualPoint(x, W), V, mu=0.0)
            h = 1e-6
            for j in range(u0.size):
                e = np.zeros_like(u0)
                e[j] = h
                col = (F_of(u0 + e) - F_of(u0 - e)) / (2 * h)
                np.testing.assert_allclose(J[:, j], col, rtol=1e-5, atol=1e-5)

    def test_smoothing_term_placement(self):
        p = make_norm_opt(3, 2, 3, seed=2)
        pt = PrimalDualPoint(np.ones(3), np.zeros((2, 3)))
        V = ActiveSet([(0, 0), (1, 2)], (2, 3))
        J0 = smoothed_jacobian(p, pt, V, mu=0.0)
        J1 = smoothed_jacobian(p, pt, V, mu=0.01)
        D = J0 - J1
        expect = np.zeros_like(D)
        expect[3:5, 3:5] = 0.01 * np.eye(2)
        np.testing.assert_allclose(D, expect, atol=1e-15)


def fit_problem(A, b):
    """An instance whose check_kkt solves min ||A c - b|| over c >= 0.

    f(x) = -<b, x> and G = (0, ..., 0, 1) for all x, with budget 1: the
    last column violates, the n zero-max columns before it are active and
    have the columns of A as constraint gradients.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    K, n = A.shape
    grads = np.column_stack([A, np.zeros(K)])
    Z = np.zeros((1, n + 1))
    Z[0, n] = 1.0
    return ProblemInstance(
        K=K, M=1, N=n + 1,
        f=lambda x: float(-b @ x),
        grad_f=lambda x: -b,
        hess_lagrangian=lambda x, rows, cols, w: np.zeros((K, K)),
        f_batch=lambda X: -(X @ b),
        G=lambda x: Z.copy(),
        G_batch=lambda X: np.broadcast_to(Z, (len(X), 1, n + 1)).copy(),
        grad_G_cols=lambda x, rows, cols: grads[:, cols],
    )


def kkt_fit(A, b):
    """check_kkt's multipliers and residual on ``fit_problem(A, b)``."""
    rep = check_kkt(fit_problem(A, b), np.zeros(len(b)), s=1)
    n = np.shape(A)[1]
    assert rep.active.pairs == tuple((0, j) for j in range(n))
    assert rep.witness_W[0, n] == 0.0
    return rep.witness_W[0, :n], rep.residual


class TestNNLS:
    """The nonnegative multiplier fit, through check_kkt's witness."""

    def test_optimality_conditions(self):
        # convexity makes the first-order conditions a complete oracle:
        # feasible, zero dual on the support, nonpositive dual on the zeros;
        # tall and wide active-gradient matrices alike
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            c, res = kkt_fit(A, b)
            assert (c >= 0).all()
            assert res == pytest.approx(np.linalg.norm(A @ c - b), abs=1e-10)
            w = A.T @ (b - A @ c)
            assert (np.abs(w[c > 1e-8]) < 1e-7).all()
            assert (w[c <= 1e-8] < 1e-7).all()

    def test_exact_fit(self):
        A = np.array([[2.0, 0.0], [-1.0, 1.0]])
        c, res = kkt_fit(A, A @ np.array([1.0, 1.0]))
        np.testing.assert_allclose(c, [1.0, 1.0], atol=1e-12)
        assert res <= 1e-12

    def test_path_residual_monotone(self):
        # the residual is convex along t*c_opt and minimal at t=1, so it must
        # be nonincreasing on [0, 1]
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        c, _ = kkt_fit(A, b)
        ts = np.linspace(0.0, 1.0, 11)
        vals = [np.linalg.norm(A @ (t * c) - b) for t in ts]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(10))


class TestKKT:
    def test_counterexample_violated_with_residual_two(self):
        p = make_counterexample()
        rep = check_kkt(p, np.array([1.0, 1.0]), s=1)
        assert not rep.satisfied
        assert rep.residual == pytest.approx(2.0, abs=1e-9)

    def test_infeasible_reason(self):
        p = make_counterexample()
        rep = check_kkt(p, np.array([3.0, 2.0]), s=1)  # both columns violate
        assert not rep.satisfied and rep.reason == "infeasible"

    def test_interior_needs_zero_gradient(self):
        p = make_counterexample()
        rep = check_kkt(p, np.array([2.0, 5.0]), s=1)  # f' = 0, one violation
        assert rep.satisfied and rep.residual <= 1e-12

    def test_recovers_constructed_multipliers(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            M, N = 2, 3
            offset = rng.uniform(-2.0, -0.5, size=(M, N))
            offset[0, 0] = 0.0
            offset[1, 1] = 0.0
            offset[0, 2] = 1.0  # one violating column; budget 1 makes it tight
            coef = rng.uniform(0.1, 2.0, size=2)
            # gradient = -(coef_1 * e_{(0,0)} + coef_2 * e_{(1,1)})
            c = np.zeros(M * N)
            c[0] = -coef[0]
            c[1 * M + 1] = -coef[1]
            p = linear_problem(M, N, c, offset)
            rep = check_kkt(p, np.zeros(M * N), s=1)
            assert rep.satisfied
            assert rep.witness_W[0, 0] == pytest.approx(coef[0], abs=1e-9)
            assert rep.witness_W[1, 1] == pytest.approx(coef[1], abs=1e-9)


class TestBKKT:
    def test_counterexample_satisfied_with_unit_witness(self):
        p = make_counterexample()
        rep = check_bkkt(p, np.array([1.0, 1.0]), np.array([1, 1]), s=1)
        assert rep.satisfied
        assert rep.residual <= 1e-9
        np.testing.assert_allclose(rep.witness_W, [[1.0, 1.0]], atol=1e-9)

    def test_kkt_implies_bkkt(self):
        p = make_counterexample()
        x = np.array([2.0, 5.0])
        y = (p.G(x).max(axis=0) <= 0).astype(int)
        assert check_kkt(p, x, s=1).satisfied
        assert check_bkkt(p, x, y, s=1).satisfied

    def test_precondition_errors(self):
        p = make_counterexample()
        with pytest.raises(ValueError, match="violates enforced"):
            check_bkkt(p, np.array([3.0, 0.0]), np.array([1, 1]), s=1)
        with pytest.raises(ValueError, match="too few"):
            check_bkkt(p, np.array([1.0, 1.0]), np.array([0, 0]), s=1)
        with pytest.raises(ValueError, match="binary"):
            check_bkkt(p, np.array([1.0, 1.0]), np.array([2, 1]), s=1)


class TestTauStationary:
    def build_boundary_case(self):
        # one violating column (budget 1), one zero-max column carrying a
        # multiplier, one strictly negative column
        M, N = 1, 3
        offset = np.array([[1.0, 0.0, -1.0]])
        w_val = 2.0
        c = np.zeros(M * N)
        c[1] = -w_val  # gradient block cancels with W on the zero entry
        p = linear_problem(M, N, c, offset)
        W = np.array([[0.0, w_val, 0.0]])
        return p, PrimalDualPoint(np.zeros(M * N), W), w_val

    def test_constructed_point_passes_below_threshold(self):
        p, pt, w_val = self.build_boundary_case()
        # threshold: largest pos-norm is 1.0, multiplier norm 2 -> tau* = 0.5
        assert max_stationary_tau(p, pt.x, s=1) == pytest.approx(0.5)
        rep = check_tau_stationary(p, pt, tau=0.4, s=1)
        assert rep.satisfied and rep.residual <= 1e-12
        rep = check_tau_stationary(p, pt, tau=5.0, s=1)
        assert not rep.satisfied

    def test_rejects_a_tau_that_is_not_positive_and_finite(self):
        # an infinite tau would make inf * 0 = nan of the zero multipliers
        p, pt, _ = self.build_boundary_case()
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                check_tau_stationary(p, pt, tau=tau, s=1)

    def test_rejects_a_nan_zero_tolerance(self):
        # NaN passes a test of ztol < 0 and then empties every class: here 7
        # columns violate against s = 1, and the check reported the point
        # tau-stationary, max_stationary_tau gave inf and the partition was
        # empty.  A NaN tol is the check's default ztol.
        problem = make_norm_opt(3, 1, 10, b=1.0, seed=0)
        x = np.ones(3)
        Z = problem.G(x)
        assert np.count_nonzero(Z.max(axis=0) > 0.0) == 7
        pt = PrimalDualPoint(x, np.zeros((1, 10)))
        for call in (lambda: check_tau_stationary(problem, pt, 0.75, 1, ztol=math.nan),
                     lambda: check_tau_stationary(problem, pt, 0.75, 1, tol=math.nan),
                     lambda: max_stationary_tau(problem, x, 1, ztol=math.nan),
                     lambda: column_partition(Z, ztol=math.nan),
                     lambda: is_candidate_set(Z, 1, np.arange(10), ztol=math.nan),
                     lambda: active_set(Z, np.arange(10), ztol=math.nan)):
            with pytest.raises(ValueError, match="ztol must be >= 0"):
                call()

    def test_given_G_matches_computed_G(self):
        p, pt, _ = self.build_boundary_case()
        calls = [0]

        def counted(x):
            calls[0] += 1
            return p.G(x)

        q = dataclasses.replace(p, G=counted)
        for tau in (0.4, 5.0):
            want = check_tau_stationary(q, pt, tau=tau, s=1)
            calls[0] = 0
            got = check_tau_stationary(q, pt, tau=tau, s=1, Z=p.G(pt.x))
            assert calls[0] == 0
            assert (got.satisfied, got.residual, got.active, got.reason) == (
                want.satisfied, want.residual, want.active, want.reason)

    def test_matches_projection_membership(self):
        rng = np.random.default_rng(10)
        hits = 0
        for trial in range(200):
            M, N = 2, 3
            Z = rng.uniform(-2.0, 2.0, size=(M, N))
            if rng.random() < 0.5:
                Z[rng.integers(0, M), rng.integers(0, N)] = 0.0
            W = np.where(rng.random((M, N)) < 0.5, rng.uniform(-1.0, 1.0, size=(M, N)), 0.0)
            tau = float(rng.uniform(0.1, 1.2))
            s = int(rng.integers(1, 3))
            c = -W.flatten(order="F")  # gradient block vanishes identically
            p = linear_problem(M, N, c)
            pt = PrimalDualPoint(Z.flatten(order="F"), W)
            rep = check_tau_stationary(p, pt, tau, s, tol=1e-9)
            members = project_step(Z + tau * W, s)
            member = min(np.linalg.norm(P - Z) for P in members) <= 1e-9
            assert rep.satisfied == member
            hits += member
        assert hits > 0  # the trial mix must exercise both outcomes

    def test_matches_the_layer_composition(self):
        # exact zeros of G(x), -0.0 among them, and of W, exact norm ties
        # and entries just inside ztol: the check must give the verdict,
        # residual and active set of the reference built from the layers
        rng = np.random.default_rng(12)
        outcomes = set()
        for trial in range(300):
            M, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            Z = rng.choice([-1.0, -1e-10, -0.0, 0.0, 0.0, 1e-10, 0.5, 1.0], size=(M, N))
            W = rng.choice([-0.5, 0.0, 0.5, 2.0], size=(M, N)) * (rng.random((M, N)) < 0.5)
            c = -W.flatten(order="F") * rng.integers(0, 2)
            p = linear_problem(M, N, c)
            pt = PrimalDualPoint(Z.flatten(order="F"), W)
            tau, s = float(rng.choice([0.25, 0.75, 1.5])), int(rng.integers(1, N + 1))
            for ztol in (0.0, 1e-9):
                rep = check_tau_stationary(p, pt, tau, s, tol=1e-9, ztol=ztol)
                want = references.check_tau_stationary(p, pt, tau, s, 1e-9, ztol)
                assert (rep.satisfied, rep.residual.hex(), rep.active, rep.reason) == (
                    want[0], want[1].hex(), want[2], want[3])
                outcomes.add((rep.satisfied, rep.reason))
        # satisfied, failed on the residual alone, failed on the index sets
        assert len(outcomes) == 3

    def test_gradient_mismatch_fails(self):
        p, pt, w_val = self.build_boundary_case()
        bad = PrimalDualPoint(pt.x, pt.W * 0.5)  # gradient block no longer cancels
        rep = check_tau_stationary(p, bad, tau=0.4, s=1)
        assert not rep.satisfied and rep.residual > 0.5


class TestMaxStationaryTau:
    def test_interior_is_infinite(self):
        p = make_counterexample()
        assert max_stationary_tau(p, np.array([2.0, 5.0]), s=1) == float("inf")

    def test_rank_tolerance_is_not_an_option(self):
        p = make_counterexample()
        with pytest.raises(TypeError):
            max_stationary_tau(p, np.array([2.0, 5.0]), s=1, rank_tol=1e-8)

    def test_rank_deficiency_raises(self):
        # duplicate constraint rows make the active gradients rank deficient
        M, N = 2, 2
        K = M * N

        def G_batch(X):
            row = np.stack([X[:, 0], X[:, 1] - 1.0], axis=1)
            return np.stack([row, row], axis=1)

        def grad_G_cols(x, rows, cols):
            # both rows of column n have the gradient e_n
            out = np.zeros((K, len(cols)))
            out[cols, np.arange(len(cols))] = 1.0
            return out

        p = ProblemInstance(K=K, M=M, N=N,
                            f=lambda x: float(x[0]),
                            grad_f=lambda x: np.array([1.0, 0.0, 0.0, 0.0]),
                            hess_lagrangian=lambda x, rows, cols, w: np.zeros((K, K)),
                            f_batch=lambda X: X[:, 0].copy(),
                            G=lambda x: G_batch(np.asarray(x)[None])[0],
                            G_batch=G_batch, grad_G_cols=grad_G_cols)
        x = np.zeros(K)
        x[1] = 1.5  # second column violates, first is zero-max: budget tight
        with pytest.raises(ValueError, match="rank deficient"):
            max_stationary_tau(p, x, s=1)

    def test_more_active_positions_than_unknowns_raise(self):
        # K = 1 and a zero-max column with two zero entries: two multipliers
        # on one gradient equation have infinitely many solutions, although
        # the one singular value of the 1 x 2 gradient matrix is far from 0
        def G_batch(X):
            t = X[:, 0] - 1.0
            one = np.ones_like(t)
            return np.stack([np.stack([one, t], axis=1), np.stack([-one, 2.0 * t], axis=1)],
                            axis=1)

        p = ProblemInstance(K=1, M=2, N=2,
                            f=lambda x: float(x[0]),
                            grad_f=lambda x: np.array([1.0]),
                            hess_lagrangian=lambda x, rows, cols, w: np.zeros((1, 1)),
                            f_batch=lambda X: X[:, 0].copy(),
                            G=lambda x: G_batch(np.asarray(x)[None])[0],
                            G_batch=G_batch,
                            grad_G_cols=lambda x, rows, cols: (rows + 1.0)[None, :] * (cols == 1))
        x = np.array([1.0])
        assert p.G(x).tolist() == [[1.0, 0.0], [-1.0, 0.0]]
        assert p.grad_G_cols(x, np.array([0, 1]), np.array([1, 1])).tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError, match="rank deficient"):
            max_stationary_tau(p, x, s=1)
