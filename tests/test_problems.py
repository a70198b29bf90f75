"""Instance constructors: derivative consistency, determinism, file round-trips."""
import dataclasses

import numpy as np
import pytest

from stepopt.geometry import step_norm
from stepopt.problems import (
    ProblemInstance,
    load_samples,
    make_counterexample,
    make_norm_opt,
    norm_opt_draw,
    save_samples,
)


def central_diff_grad(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def fd_jacobian(fun, x, h=1e-6):
    """Central differences of a vector-valued fun: column k is d fun / d x_k."""
    return np.column_stack([
        central_diff_grad(lambda y, j=j: fun(y)[j], x, h) for j in range(len(fun(x)))
    ]).T


def gradient_columns_fd(p, x, rows, cols):
    """Gradients of the entries (rows[j], cols[j]) of G by central differences."""
    return fd_jacobian(lambda y: p.G(y)[rows, cols], x).T


def weighted_hessian_fd(p, x, rows, cols, w):
    """Hessian of sum_j w[j] * G[rows[j], cols[j]], differencing grad_G_cols."""
    return fd_jacobian(lambda y: p.grad_G_cols(y, rows, cols) @ w, x)


def sample_point(rng, K):
    # keep coordinates away from the objective kink at zero
    x = rng.uniform(0.2, 1.5, size=K)
    x *= rng.choice([-1.0, 1.0], size=K)
    return x


class TestNormOpt:
    def test_shapes_and_signs(self):
        p = make_norm_opt(4, 3, 6, seed=1)
        assert (p.K, p.M, p.N) == (4, 3, 6)
        assert p.xi_sq.shape == (6, 3, 4)
        assert (p.xi_sq >= 0).all()
        x = np.ones(4)
        assert p.G(x).shape == (3, 6)
        assert p.grad_f(x).shape == (4,)
        assert p.hess_f(x).shape == (4, 4)

    def test_objective_at_ones(self):
        # at x = 1: quadratic term 0.5*K, hinge 0, linear -K
        for K in (3, 10):
            p = make_norm_opt(K, 2, 4, seed=3)
            assert p.f(np.ones(K)) == pytest.approx(-0.5 * K)

    def test_unconstrained_at_origin(self):
        p = make_norm_opt(5, 2, 8, b=100.0, seed=0)
        assert step_norm(p.G(np.zeros(5))) == 0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        p = make_norm_opt(5, 2, 8, seed=2)
        for _ in range(10):
            x = sample_point(rng, 5)
            gfd = central_diff_grad(p.f, x)
            np.testing.assert_allclose(p.grad_f(x), gfd, rtol=1e-6, atol=1e-6)
            rows, cols = np.array([0, 1, 0]), np.array([0, 3, 7])
            np.testing.assert_allclose(p.grad_G_cols(x, rows, cols),
                                       gradient_columns_fd(p, x, rows, cols),
                                       rtol=1e-5, atol=1e-6)

    def test_hessians_match_fd(self):
        rng = np.random.default_rng(12)
        p = make_norm_opt(4, 2, 5, seed=4)
        x = sample_point(rng, 4)
        for rows, cols, w in (([0], [0], [1.0]), ([1], [2], [1.0]),
                              ([0, 1, 1], [0, 2, 4], rng.uniform(-1.0, 2.0, size=3))):
            rows, cols, w = np.array(rows), np.array(cols), np.array(w)
            np.testing.assert_allclose(p.weighted_hess_G(x, rows, cols, w),
                                       weighted_hessian_fd(p, x, rows, cols, w),
                                       rtol=1e-5, atol=1e-5)

    def test_vectorized_hooks_match_loops(self):
        # against a loop over the closed forms 2*xi_sq[n, m]*x and
        # diag(2*xi_sq[n, m]) of each entry's gradient and Hessian
        rng = np.random.default_rng(13)
        p = make_norm_opt(5, 3, 7, seed=5)
        x = sample_point(rng, 5)
        rows = np.array([0, 2, 1, 0])
        cols = np.array([1, 1, 4, 6])
        w = rng.uniform(0.0, 2.0, size=4)
        loop_g = np.column_stack([2.0 * p.xi_sq[n, m] * x for m, n in zip(rows, cols)])
        np.testing.assert_allclose(p.grad_G_cols(x, rows, cols), loop_g, atol=1e-14)
        loop_h = sum(wi * np.diag(2.0 * p.xi_sq[n, m]) for wi, m, n in zip(w, rows, cols))
        np.testing.assert_allclose(p.weighted_hess_G(x, rows, cols, w), loop_h, atol=1e-13)
        # no entries: an empty (K, 0) block and a zero Hessian
        none = np.array([], dtype=np.intp)
        assert p.grad_G_cols(x, none, none).shape == (5, 0)
        np.testing.assert_array_equal(p.weighted_hess_G(x, none, none, np.array([])),
                                      np.zeros((5, 5)))

    def test_batch_hooks_match_loops(self):
        rng = np.random.default_rng(14)
        p = make_norm_opt(3, 2, 4, seed=6)
        X = rng.uniform(-2.0, 2.0, size=(6, 3))
        np.testing.assert_allclose(p.f_batch(X), [p.f(x) for x in X], atol=1e-13)
        GB = p.G_batch(X)
        for i, x in enumerate(X):
            np.testing.assert_allclose(GB[i], p.G(x), atol=1e-12)

    def test_seed_determinism(self):
        a = make_norm_opt(4, 2, 6, seed=42)
        b = make_norm_opt(4, 2, 6, seed=42)
        c = make_norm_opt(4, 2, 6, seed=43)
        np.testing.assert_array_equal(a.xi, b.xi)
        assert not np.array_equal(a.xi, c.xi)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_norm_opt(0, 1, 1)
        with pytest.raises(ValueError):
            make_norm_opt(1, 1, 1, b=-5.0)


class TestCounterexample:
    def test_values_at_probe_points(self):
        p = make_counterexample()
        np.testing.assert_allclose(p.G(np.array([1.0, 1.0])), [[0.0, 0.0]])
        np.testing.assert_allclose(p.G(np.array([2.0, 4.0])), [[0.0, 3.0]])
        assert p.f(np.array([2.0, 4.0])) == 0.0
        np.testing.assert_allclose(p.grad_f(np.array([1.0, 1.0])), [-2.0, 0.0])

    def test_derivatives_match_fd(self):
        p = make_counterexample()
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.uniform(-2.0, 3.0, size=2)
            np.testing.assert_allclose(p.grad_f(x), central_diff_grad(p.f, x), atol=1e-6)
            for cols in ([0], [1], [0, 1], [1, 0]):
                rows, cols = np.zeros(len(cols), dtype=int), np.array(cols)
                np.testing.assert_allclose(p.grad_G_cols(x, rows, cols),
                                           gradient_columns_fd(p, x, rows, cols), atol=1e-6)
                w = rng.uniform(-1.0, 2.0, size=len(cols))
                np.testing.assert_allclose(p.weighted_hess_G(x, rows, cols, w),
                                           weighted_hessian_fd(p, x, rows, cols, w), atol=1e-6)


def instance_fields(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(ProblemInstance)}


class TestContract:
    def test_missing_evaluator_raises_type_error(self):
        fields = instance_fields(make_counterexample())
        ProblemInstance(**fields)
        for name in ("grad_G_cols", "weighted_hess_G", "f_batch", "G_batch"):
            with pytest.raises(TypeError, match=name):
                ProblemInstance(**{k: v for k, v in fields.items() if k != name})
        # the line-search model is the one optional evaluator
        optional = [f.name for f in dataclasses.fields(ProblemInstance)
                    if f.default is not dataclasses.MISSING]
        assert optional == ["violations_along"]
        ProblemInstance(**{k: v for k, v in fields.items() if k != "violations_along"})

    def test_scalar_callbacks_are_rejected(self):
        scalar = dict(instance_fields(make_counterexample()),
                      grad_G=lambda x, m, n: np.zeros(2),
                      hess_G=lambda x, m, n: np.zeros((2, 2)))
        with pytest.raises(TypeError, match="grad_G"):
            ProblemInstance(**scalar)


class TestSampleFiles:
    def test_round_trip_exact(self, tmp_path):
        p = make_norm_opt(3, 2, 5, b=50.0, seed=9)
        path = tmp_path / "samples.csv"
        save_samples(p, path)
        q = load_samples(path, b=50.0)
        np.testing.assert_array_equal(p.xi, q.xi)
        assert q.seed is None
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=3)
            np.testing.assert_array_equal(p.G(x), q.G(x))

    def test_header_and_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            "# two samples, one constraint row, two vars\n"
            "1.0,2.0\n"
            "\n"
            "3.0,-4.0\n"
        )
        p = load_samples(path)
        assert (p.N, p.M, p.K) == (2, 1, 2)
        np.testing.assert_array_equal(p.xi[1, 0], [3.0, -4.0])

    def test_ragged_block_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            load_samples(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(ValueError, match="line 1"):
            load_samples(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no sample blocks"):
            load_samples(path)


class TestDrawFamily:
    def test_matches_instance_law(self):
        draw = norm_opt_draw(3, 2, b=10.0)
        rng = np.random.default_rng(77)
        vals = draw(np.ones(3), 5, rng)
        assert vals.shape == (2, 5)
        # with x = 0 every value is exactly -b
        vals0 = draw(np.zeros(3), 4, np.random.default_rng(1))
        np.testing.assert_array_equal(vals0, -10.0)
