"""Partial refresh: G at a new iterate, exact only where a bound cannot clear it.

After an accepted step ``solve`` gets G at the new iterate from the
problem's ``G_step``, with a ceiling per column: -inf where the
multipliers are nonzero and -tol elsewhere.  The norm-design instance
evaluates G exactly on every column whose bound (``_step_bounds``) does not
come out below its ceiling, and keeps that bound elsewhere.  These tests
pin the rounding that makes the exact columns bit-identical to G, check
the bound entry by entry along chains of steps, and compare solves and
line searches that read a bounded G with those that read the full one.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepopt.problems as problems_mod
import stepopt.solver as solver_mod
from stepopt.geometry import step_norm
from stepopt.problems import make_norm_opt
from stepopt.solver import SolverConfig, feasibility_line_search, gamma_for, solve
from stepopt.stationarity import PrimalDualPoint


def bounded_columns(Z, want, ceiling):
    """Mask of the columns where ``G_step``'s ``Z`` is not ``want`` = G bit for bit.

    Each of them must hold one number, below the column's ceiling and at
    least the column's maximum of G.
    """
    differ = ((Z != want) | (np.signbit(Z) != np.signbit(want))).any(axis=0)
    bound = Z[0, differ]
    assert (Z[:, differ] == bound).all()
    assert (bound < ceiling[differ]).all()
    assert (want[:, differ].max(axis=0) <= bound).all()
    return differ


@pytest.mark.parametrize("K,M,N", [(10, 1, 100), (20, 5, 500), (50, 20, 2000)])
def test_G_columns_are_the_einsum_bit_for_bit(K, M, N):
    """G is one einsum, and the same einsum over gathered columns gives them back.

    ``_einsum_G`` skips the einsum only where every square of x is zero;
    ``test_G_at_zero_squares_is_the_einsum_bit_for_bit`` pins that case,
    and the points here, scaled by 1e-3, 1 or 1e3, all run the einsum.

    Two parts of the code rest on this rounding.  ``G_step`` evaluates G
    on a few columns with the einsum over the gathered sample rows, and
    mixes the result into a G it then treats as exact.
    ``bench/workloads.py::_boundary_instance`` sets b from this einsum's
    own rounding so that one column of G is exactly zero; a G that sums in
    another order breaks that construction.  The violation model does not:
    its own G(x), a BLAS product summed in another order, need only lie
    within the model's band of G, in place and over blocks of
    ``_MODEL_BLOCK_BYTES // (8*M*K)`` gathered columns and a shorter block
    at the end, since its bounds are statements about G.  The shapes are
    those of the ``paper``, ``analysis`` and ``wide`` workloads.
    """
    problem = make_norm_opt(K, M, N, b=14.0, seed=K)
    rng = np.random.default_rng(M)
    block = min(N, problems_mod._MODEL_BLOCK_BYTES // (8 * M * K))
    for _ in range(8):
        x = rng.standard_normal(K) * rng.choice([1e-3, 1.0, 1e3])
        full = problem.G(x)
        assert full.tobytes() == (np.einsum("nmk,k->mn", problem.xi_sq, x * x) - problem.b).tobytes()
        for size in (1, int(rng.integers(2, N)), N, block, int(rng.integers(1, block + 1))):
            cols = np.sort(rng.choice(N, size, replace=False))
            part = np.einsum("nmk,k->mn", np.take(problem.xi_sq, cols, axis=0), x * x) - problem.b
            assert part.tobytes() == full[:, cols].tobytes()
        # the model's own G in place, and over whole blocks and a shorter
        # last one, within its band of G on every column
        cols = np.sort(rng.choice(N, min(N, 2 * block + int(rng.integers(1, block + 1))),
                                  replace=False))
        xd = np.ones((K, 3))
        xd[:, 0] = x * x
        for c in (None, cols):
            rows, bands = problems_mod._column_model(problem.xi_sq, c, xd, problem.b)
            want = full if c is None else full[:, c]
            assert (np.abs(rows[0].reshape(want.shape) - want) <= bands[0]).all()


def zero_square_points(K, rng):
    """Points whose squares are all zero: +0, -0.0 entries, and squares that underflow."""
    tiny = rng.choice([-1.0, 1.0], K) * rng.uniform(0.5, 2.0, K) * 1e-170
    mixed = np.where(rng.random(K) < 0.5, -0.0, tiny)
    return {"zero": np.zeros(K), "negative zero": np.full(K, -0.0), "tiny": tiny, "mixed": mixed}


@pytest.mark.parametrize("K,M,N", [(10, 1, 100), (20, 5, 500), (50, 20, 2000)])
def test_G_at_zero_squares_is_the_einsum_bit_for_bit(K, M, N):
    # Where every square of x is zero, G returns -b without reading the
    # samples.  That is the einsum's result in bytes and in layout, and
    # G_step at a trial point y == 0, which goes through the same function,
    # gives the same values.  The model's own G rows, a product that sums
    # +0 terms only there, come out as -b too.  The shapes are those of
    # the paper, analysis and wide workloads.
    problem = make_norm_opt(K, M, N, b=14.0, seed=K)
    b, xi_sq = problem.b, problem.xi_sq
    rng = np.random.default_rng(N)
    block = min(N, problems_mod._MODEL_BLOCK_BYTES // (8 * M * K))
    cols = np.sort(rng.choice(N, min(N, 2 * block + 1), replace=False))
    xd = rng.standard_normal((K, 3))
    # small enough that the bound clears columns after the step v -> 0
    v = 0.05 * rng.standard_normal(K)
    for name, x in zero_square_points(K, rng).items():
        assert not np.count_nonzero(x * x), name
        want = np.einsum("nmk,k->mn", xi_sq, x * x) - b
        got = problem.G(x)
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous
        xd[:, 0] = x * x
        for c in (None, cols):
            rows, _ = problems_mod._column_model(xi_sq, c, xd, b)
            assert rows[0].tobytes() == (want if c is None else want[:, c]).tobytes(), name
    if problem.G_step is None:
        return
    zero = problem.G(np.zeros(K))
    # y = v + 1.0*(-v) is +0 in every entry, and the bound clears the
    # columns whose ceiling is zero there; y = 0 + 0*d takes the path
    # without bounds
    ceiling = np.zeros(N)
    ceiling[cols[:3]] = -np.inf
    bounded = bounded_columns(problem.G_step(v, -v, 1.0, problem.G(v), ceiling), zero, ceiling)
    assert bounded.any()
    Z = problem.G_step(np.zeros(K), v, 0.0, zero, np.zeros(N))
    assert Z.tobytes() == zero.tobytes()


def test_G_at_zero_squares_reads_no_sample():
    # NaN samples turn G NaN wherever it reads them, but not where every
    # square of x is zero
    problem = make_norm_opt(10, 1, 100, b=14.0, seed=3)
    problem.xi_sq[...] = np.nan
    rng = np.random.default_rng(0)
    for name, x in zero_square_points(problem.K, rng).items():
        got = problem.G(x)
        assert (got == -problem.b).all() and got.shape == (problem.M, problem.N), name
    assert np.isnan(problem.G(np.full(problem.K, 1e-3))).all()


# samples over many row blocks, so that the instance has the envelope and
# G_step; the trial steps of the search, a tiny step and zero
ENV_DIMS = (40, 3, 700)
STEP_CHOICES = list(solver_mod._STEPS) + [1e-8, 1e-300, 0.0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 3), point=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
       edge=st.sampled_from(["none", "below", "zero"]), where=st.integers(0, 3),
       ulps=st.integers(1, 4), at=st.lists(st.integers(0, len(STEP_CHOICES) - 1),
                                           min_size=3, max_size=3),
       aligned=st.booleans(), keep=st.integers(0, 30),
       tol=st.sampled_from([1e-9, 1e-4, 1.0]), share=st.sampled_from([0.0, 0.5, 1.0]))
def test_step_bounds_hold_along_chains_of_steps(seed, point, scale, edge, where, ulps, at,
                                                aligned, keep, tol, share):
    # Three steps in a row, each from the point the last one reached and
    # from the G that G_step gave there, so that bounds stand in for G in
    # the later calls.  The largest entry of G is a few ulps below zero
    # ("below") or exactly zero ("zero", b taken from G's own arithmetic)
    # at one point of the chain.  An aligned chain moves along the signs of
    # x, with entries of one magnitude, where the bound's two inequalities
    # hold with equality.  The ceilings mix -inf (``keep`` columns), -tol
    # (a ``share`` of the rest) and 0.  Every column that is not G bit for
    # bit must hold one number, below its ceiling and at least G's column
    # maximum there.
    K, M, N = ENV_DIMS
    rng = np.random.default_rng(point)
    if aligned:
        signs = rng.choice([-1.0, 1.0], K)
        x = rng.uniform(0.1, 1.0) * signs
        directions = [scale * signs] * 3
    else:
        x = rng.uniform(-1.0, 1.0, K)
        directions = [rng.standard_normal(K) * scale for _ in range(3)]
    alphas = [STEP_CHOICES[i] for i in at]
    points = [x]
    for d, a in zip(directions, alphas):
        points.append(points[-1] + a * d)
    xi_sq = make_norm_opt(K, M, N, seed=seed).xi_sq
    b = 20.0
    if edge != "none":
        y = points[where]
        b = float(np.einsum("nmk,k->mn", xi_sq, y * y).max())
        for _ in range(ulps if edge == "below" else 0):
            b = float(np.nextafter(b, np.inf))
    problem = make_norm_opt(K, M, N, b=b, seed=seed)
    ceiling = np.where(rng.random(N) < share, -tol, 0.0)
    ceiling[rng.choice(N, keep, replace=False)] = -np.inf
    Z = problem.G(x)
    for y, d, a, y_next in zip(points, directions, alphas, points[1:]):
        Z = problem.G_step(y, d, a, Z, ceiling)
        bounded_columns(Z, problem.G(y_next), ceiling)


# an instance with G_step, at a threshold where the budget binds
PARITY_DIMS = (20, 10, 1000, 25.0)


def full_refresh(problem):
    """The same instance without G_step: every refresh evaluates all of G."""
    return dataclasses.replace(problem, G_step=None)


def with_recorded_steps(problem):
    """The same instance with a G_step that records its Z and bounded columns."""
    steps = []
    G_step = problem.G_step

    def recorded(x, d, alpha, Z, ceiling):
        out = G_step(x, d, alpha, Z, ceiling)
        steps.append((out, bounded_columns(out, problem.G(x + alpha * d), ceiling)))
        return out

    return dataclasses.replace(problem, G_step=recorded), steps


def report_fields(report):
    return (report.kind, report.satisfied, report.residual.hex(), report.active,
            report.witness_W.tobytes(), report.reason)


@pytest.mark.parametrize("seed", range(3))
def test_solve_with_partial_refresh_equals_solve_with_full(seed):
    # From zero and from a start whose multipliers are nonzero on a few
    # columns, which G_step must then evaluate exactly: the same bytes of
    # x and W, status, iterations, trace, final residual and final report.
    K, M, N, b = PARITY_DIMS
    problem, steps = with_recorded_steps(make_norm_opt(K, M, N, b=b, seed=seed))
    s = math.ceil(0.05 * N)
    config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30)
    rng = np.random.default_rng(seed)
    W = np.zeros((M, N))
    cols = rng.choice(N, 20, replace=False)
    W[:, cols] = rng.uniform(0.0, 1.0, (M, cols.size))
    for start in (None, PrimalDualPoint(rng.uniform(0.0, 0.5, K), W)):
        steps.clear()
        got = solve(problem, config, start)
        want = solve(full_refresh(problem), config, start)
        assert got.point.x.tobytes() == want.point.x.tobytes()
        assert got.point.W.tobytes() == want.point.W.tobytes()
        assert (got.status, got.iterations, got.trace) == (want.status, want.iterations, want.trace)
        assert got.final_residual.hex() == want.final_residual.hex()
        assert report_fields(got.final_report) == report_fields(want.final_report)
        assert got.active == want.active
        # the refreshes were partial, and the budget bound some iterates
        assert any(mask.any() for _, mask in steps)
        assert max(rec.violations for rec in got.trace) > 0
        if start is not None:
            assert all(not mask[cols].any() for _, mask in steps)


def test_final_report_takes_the_last_Z(monkeypatch):
    # The final check is given the last refresh's Z as it is, bounds and
    # all, and its report equals that of a check that evaluates G.  Some
    # of the last refreshes bounded columns.
    K, M, N, b = 50, 20, 200, 40.0
    given = []
    plain = solver_mod.check_tau_stationary

    def recorded(*args, Z=None, **kwargs):
        given.append(Z)
        return plain(*args, Z=Z, **kwargs)

    monkeypatch.setattr(solver_mod, "check_tau_stationary", recorded)
    bounded = 0
    for tol_scale in (1e-9, 1e-6):
        for seed in range(6):
            problem, steps = with_recorded_steps(make_norm_opt(K, M, N, b=b, seed=seed))
            s = math.ceil(0.05 * N)
            config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30, tol_scale=tol_scale)
            given.clear()
            res = solve(problem, config)
            tol = tol_scale * K * M * N
            assert steps
            Z, mask = steps[-1]
            assert len(given) == 1 and given[0] is Z
            want = plain(problem, res.point, config.tau, s, tol=tol)
            assert report_fields(res.final_report) == report_fields(want)
            bounded += bool(mask.any())
    assert bounded > 0


def decisions(lo, hi, cap):
    """Per step: 1 when the bounds accept it, -1 when they reject it, else 0."""
    return np.where(hi <= cap, 1, np.where(lo > cap, -1, 0))


def searched(problem, x, d, s, gamma, Z):
    """(result, G calls) of one search on ``problem``."""
    calls = [0]
    G = problem.G

    def counted(y):
        calls[0] += 1
        return G(y)

    got = feasibility_line_search(dataclasses.replace(problem, G=counted), x, d, s, gamma, Z)
    return got, calls[0]


def test_model_decides_as_with_exact_values_where_Z_is_bounded(monkeypatch):
    # Z from G_step holds bounds on most columns, and the hook is given
    # that Z alone.  Its envelope reads the bounds, and the model evaluates
    # G itself on every column it adds to S, bounded ones among them, so
    # that its bounds hold at every step, its search decides as with the
    # exact Z and calls G as often, and every step is accepted, rejected
    # or left open alike.  A direction with ||d||_inf below the envelope's
    # floor takes the path without the envelope, which models every column
    # and reads no Z: its bounds are those of the exact Z.
    K, M, N, b = PARITY_DIMS
    problem = make_norm_opt(K, M, N, b=b, seed=1)
    built = []
    plain = problems_mod._column_model

    def recorded(xi_sq, cols, xd, b):
        built.append(cols)
        return plain(xi_sq, cols, xd, b)

    monkeypatch.setattr(problems_mod, "_column_model", recorded)
    rng = np.random.default_rng(3)
    steps = solver_mod._STEPS
    bounded_in_S = 0
    for _ in range(6):
        x0 = rng.uniform(0.0, 0.4, K)
        d0 = rng.uniform(0.0, 0.4, K)
        a0 = float(steps[int(rng.integers(0, 10))])
        ceiling = np.zeros(N)
        Zb = problem.G_step(x0, d0, a0, problem.G(x0), ceiling)
        x = x0 + a0 * d0
        Z = problem.G(x)
        bounded = bounded_columns(Zb, Z, ceiling)
        assert bounded.any()
        for d in (rng.standard_normal(K), rng.uniform(0.0, 1.0, K), np.full(K, 2.0 ** -300)):
            for s, gamma in ((5, 0.5), (50, 0.06), (200, 0.0)):
                cap = (gamma + 1.0) * s
                built.clear()
                got = problem.violations_along(x, d, Zb, steps, cap)
                bounded_in_S += sum(int(bounded.sum() if c is None else bounded[c].sum())
                                    for c in built)
                want = problem.violations_along(x, d, Z, steps, cap)
                result, calls = searched(problem, x, d, s, gamma, Zb)
                assert (result, calls) == searched(problem, x, d, s, gamma, Z)
                assert (decisions(*got, cap) == decisions(*want, cap)).all()
                if np.abs(d).max() < problems_mod._ENV_LO:
                    assert all(np.array_equal(u, v) for u, v in zip(got, want))
                for a, lo, hi in zip(steps, *got):
                    assert lo <= step_norm(problem.G(x + a * d)) <= hi
    assert bounded_in_S > 0
