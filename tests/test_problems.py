"""Instance constructors: derivative consistency, determinism, file round-trips."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stepopt.geometry import step_norm
from stepopt.problems import (
    ProblemInstance,
    _build_norm_opt,
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


def lagrangian_hessian_fd(p, x, rows, cols, w):
    """Hessian of f + sum_j w[j] * G[rows[j], cols[j]], differencing its gradient."""
    return fd_jacobian(lambda y: p.grad_f(y) + p.grad_G_cols(y, rows, cols) @ w, x)


NO_ENTRIES = np.array([], dtype=np.intp)


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
        assert p.hess_lagrangian(x, NO_ENTRIES, NO_ENTRIES, np.array([])).shape == (4, 4)

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
        for rows, cols, w in (([], [], []), ([0], [0], [1.0]), ([1], [2], [1.0]),
                              ([0, 1, 1], [0, 2, 4], rng.uniform(-1.0, 2.0, size=3))):
            rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
            w = np.array(w, dtype=float)
            np.testing.assert_allclose(p.hess_lagrangian(x, rows, cols, w),
                                       lagrangian_hessian_fd(p, x, rows, cols, w),
                                       rtol=1e-5, atol=1e-5)

    def test_vectorized_hooks_match_loops(self):
        # against a loop over the closed forms 2*xi_sq[n, m]*x and
        # diag(2*xi_sq[n, m]) of each entry's gradient and Hessian, and
        # 2*lambda2*I of the objective's
        rng = np.random.default_rng(13)
        p = make_norm_opt(5, 3, 7, seed=5)
        x = sample_point(rng, 5)
        rows = np.array([0, 2, 1, 0])
        cols = np.array([1, 1, 4, 6])
        w = rng.uniform(0.0, 2.0, size=4)
        loop_g = np.column_stack([2.0 * p.xi_sq[n, m] * x for m, n in zip(rows, cols)])
        np.testing.assert_allclose(p.grad_G_cols(x, rows, cols), loop_g, atol=1e-14)
        loop_h = 2.0 * p.lambda2 * np.eye(5) + sum(
            wi * np.diag(2.0 * p.xi_sq[n, m]) for wi, m, n in zip(w, rows, cols))
        np.testing.assert_allclose(p.hess_lagrangian(x, rows, cols, w), loop_h, atol=1e-13)
        # no entries: an empty (K, 0) block
        assert p.grad_G_cols(x, NO_ENTRIES, NO_ENTRIES).shape == (5, 0)

    def test_hess_lagrangian_is_the_closed_form_bit_for_bit(self):
        # 2*lambda2 on the diagonal plus the weighted sum of the squared
        # draws, summed in that order, and +0.0 off it
        rng = np.random.default_rng(16)
        for K, M, N, lambda2 in ((5, 3, 7, 0.5), (4, 1, 9, 0.3), (1, 2, 3, 1.7)):
            p = make_norm_opt(K, M, N, lambda2=lambda2, seed=K + N)
            x = sample_point(rng, K)
            for L in (0, 1, 4, M * N):
                flat = rng.choice(M * N, size=L, replace=False)
                rows, cols = flat % M, flat // M
                w = rng.uniform(0.0, 2.0, size=L)
                want = 2 * lambda2 * np.eye(K) + np.diag(2 * (w @ p.xi_sq[cols, rows, :]))
                got = p.hess_lagrangian(x, rows, cols, w)
                assert got.shape == (K, K)
                assert got.tobytes() == want.tobytes(), (K, L)

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


# the largest magnitude whose square is finite; a larger draw is rejected
SQUARE_MAX = float(np.sqrt(np.finfo(float).max))

# magnitudes on both sides of the range where sqrt(x*x) == |x|: zeros,
# subnormals, around 2^-511 and 2^511, and the largest finite squares
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-511,
                  -np.nextafter(2.0**-511, 0.0), np.nextafter(2.0**511, 0.0), -2.0**511,
                  SQUARE_MAX, -SQUARE_MAX, 1e-160, 1.5, -3.0])


def signed(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


DRAW_VALUES = (st.floats(-SQUARE_MAX, SQUARE_MAX)
               | st.floats(-2.0**-1022, 2.0**-1022)
               | signed(2.0**-515, 2.0**-507) | signed(2.0**507, SQUARE_MAX)
               | st.sampled_from(EDGES.tolist()))


def built(draws):
    """An instance from a copy of ``draws``."""
    return _build_norm_opt(draws.copy(), 1.0, 0.5, 0.5, None)


class TestRawDraws:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(arrays(np.float64, array_shapes(min_dims=3, max_dims=3, max_side=5),
                  elements=DRAW_VALUES, fill=st.nothing()))
    @example(EDGES.reshape(2, 1, 7))
    def test_xi_round_trips_bit_for_bit(self, draws):
        p = built(draws)
        np.testing.assert_array_equal(p.xi.view(np.int64), draws.view(np.int64))
        np.testing.assert_array_equal(p.xi_sq.view(np.int64), (draws ** 2).view(np.int64))

    def test_gaussian_draws_need_no_patch(self):
        p = make_norm_opt(6, 3, 40, seed=2)
        assert p.xi_patch_at.size == 0 and p.xi_patch_mag.size == 0
        assert p.xi_signs.dtype == np.uint8 and p.xi_signs.size == (6 * 3 * 40 + 7) // 8
        raw = np.random.default_rng(2).standard_normal((40, 3, 6))
        np.testing.assert_array_equal(p.xi.view(np.int64), raw.view(np.int64))

    def test_non_finite_draws_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            draws = np.ones((2, 1, 3))
            draws[1, 0, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _build_norm_opt(draws, 1.0, 0.5, 0.5, None)

    def test_non_finite_parameters_rejected(self):
        for kw, message in (({"b": math.inf}, "threshold b"), ({"b": math.nan}, "threshold b"),
                            ({"b": 0.0}, "threshold b"), ({"lambda1": math.inf}, "lambda1"),
                            ({"lambda2": math.nan}, "lambda2"), ({"lambda2": -math.inf}, "lambda2")):
            with pytest.raises(ValueError, match=message):
                make_norm_opt(3, 1, 5, **{"b": 2.0, **kw})

    def test_draws_whose_square_overflows_rejected(self, tmp_path):
        # a square of inf would make G return inf, or nan where x_k = 0
        for bad in (np.nextafter(SQUARE_MAX, np.inf), 1e200, -np.finfo(float).max):
            draws = np.ones((2, 1, 3))
            draws[1, 0, 2] = bad
            with pytest.raises(ValueError, match="overflows when squared"):
                _build_norm_opt(draws, 1.0, 0.5, 0.5, None)
        path = tmp_path / "samples.csv"
        path.write_text("1e200,1.0\n")
        with pytest.raises(ValueError, match="overflows when squared"):
            load_samples(path)

    def test_replace_keeps_xi(self):
        p = built(EDGES.reshape(2, 1, 7))
        q = dataclasses.replace(p, G=p.G, b=2.0)
        assert q.b == 2.0
        np.testing.assert_array_equal(q.xi.view(np.int64), p.xi.view(np.int64))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        for p in (make_norm_opt(3, 2, 5, seed=8), built(EDGES.reshape(2, 1, 7))):
            first, second = tmp_path / "first.csv", tmp_path / "second.csv"
            save_samples(p, first)
            q = load_samples(first)
            save_samples(q, second)
            assert first.read_bytes() == second.read_bytes()

    def test_memory_is_the_squares_and_sign_bits(self):
        # the instance keeps one float per draw and one bit, and building it
        # never holds a second (N, M, K) array
        K, M, N = 50, 20, 200
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            p = make_norm_opt(K, M, N, seed=3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        squares = p.xi_sq.nbytes
        assert p.xi_signs.nbytes == N * M * K // 8
        assert held - base <= squares + p.xi_signs.nbytes + 64 * 1024
        assert peak - base < 1.3 * squares


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
                np.testing.assert_allclose(p.hess_lagrangian(x, rows, cols, w),
                                           lagrangian_hessian_fd(p, x, rows, cols, w), atol=1e-6)

    def test_hess_lagrangian_is_the_closed_form_bit_for_bit(self):
        p = make_counterexample()
        rng = np.random.default_rng(17)
        x = np.array([1.0, 1.0])
        for cols in ([], [0], [1], [0, 1], [1, 0], [0, 0, 1]):
            cols = np.array(cols, dtype=np.intp)
            rows = np.zeros(len(cols), dtype=np.intp)
            w = rng.uniform(-1.0, 2.0, size=len(cols))
            want = np.array([[2 + 2 * w[cols == 0].sum(), 0.0], [0.0, 0.0]])
            assert p.hess_lagrangian(x, rows, cols, w).tobytes() == want.tobytes(), cols


def instance_fields(p):
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(ProblemInstance)}


class TestContract:
    def test_missing_evaluator_raises_type_error(self):
        fields = instance_fields(make_counterexample())
        ProblemInstance(**fields)
        for name in ("grad_G_cols", "hess_lagrangian", "f_batch", "G_batch"):
            with pytest.raises(TypeError, match=name):
                ProblemInstance(**{k: v for k, v in fields.items() if k != name})
        # the line-search model and the step evaluator are the optional ones
        optional = [f.name for f in dataclasses.fields(ProblemInstance)
                    if f.default is not dataclasses.MISSING]
        assert optional == ["violations_along", "G_step"]
        ProblemInstance(**{k: v for k, v in fields.items() if k not in optional})

    def test_scalar_callbacks_are_rejected(self):
        scalar = dict(instance_fields(make_counterexample()),
                      grad_G=lambda x, m, n: np.zeros(2),
                      hess_G=lambda x, m, n: np.zeros((2, 2)))
        with pytest.raises(TypeError, match="grad_G"):
            ProblemInstance(**scalar)

    def test_separate_hessian_callbacks_are_rejected(self):
        fields = instance_fields(make_counterexample())
        for name in ("hess_f", "weighted_hess_G"):
            with pytest.raises(TypeError, match=name):
                ProblemInstance(**fields, **{name: lambda *args: np.zeros((2, 2))})


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
    @pytest.mark.parametrize("K,M", [(0, 1), (2, 0)])
    def test_empty_dimensions_rejected(self, K, M):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            norm_opt_draw(K, M)

    @pytest.mark.parametrize("b", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_threshold_rejected(self, b):
        # as _build_norm_opt checks it; a NaN b gave NaN values, which a
        # Monte-Carlo check counted as feasible
        with pytest.raises(ValueError, match="threshold b must be positive and finite"):
            norm_opt_draw(3, 2, b=b)

    def test_matches_instance_law(self):
        draw = norm_opt_draw(3, 2, b=10.0)
        rng = np.random.default_rng(77)
        vals = draw(np.ones(3), 5, rng)
        assert vals.shape == (2, 5)
        # with x = 0 every value is exactly -b
        vals0 = draw(np.zeros(3), 4, np.random.default_rng(1))
        np.testing.assert_array_equal(vals0, -10.0)
