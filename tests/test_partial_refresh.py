"""Partial refresh: G at a new iterate, exact only where a bound cannot clear it.

After an accepted step ``solve`` gets G at the new iterate from the
problem's ``G_step``.  The norm-design instance evaluates G exactly on the
columns where the multipliers are nonzero and on every column whose bound
(``_step_bounds``) does not come out below zero, and keeps that bound
elsewhere.  These tests pin the rounding that makes the exact columns
bit-identical to G, check the bound entry by entry along chains of steps,
and compare solves and line searches that read a bounded G with those
that read the full one.
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

NO_COLS = np.empty(0, dtype=np.intp)


@pytest.mark.parametrize("K,M,N", [(10, 1, 100), (20, 5, 500), (50, 20, 2000)])
def test_G_columns_are_the_einsum_bit_for_bit(K, M, N):
    """G is one einsum, and the same einsum over gathered columns gives them back.

    Three parts of the code rest on this rounding.  ``G_step`` evaluates G
    on a few columns with the einsum over the gathered sample rows, and
    mixes the result into a G it then treats as exact.  The violation
    model evaluates G on the columns it models with the same einsum, one
    per block of ``_MODEL_BLOCK_BYTES // (8*M*K)`` gathered columns and a
    shorter block at the end, and its bounds are statements about G.
    ``bench/workloads.py::_boundary_instance`` sets b from this einsum's
    own rounding so that one column of G is exactly zero; a G that sums in
    another order breaks that construction.  The shapes are those of the
    ``paper``, ``analysis`` and ``wide`` workloads.
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
        # the model's own G over whole blocks and a shorter last one
        cols = np.sort(rng.choice(N, min(N, 2 * block + int(rng.integers(1, block + 1))),
                                  replace=False))
        xd = np.ones((K, 2))
        rows, _ = problems_mod._column_model(problem.xi_sq, None, cols, x, xd, problem.b)
        assert rows[0].tobytes() == full[:, cols].tobytes()


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
       aligned=st.booleans(), keep=st.integers(0, 30))
def test_step_bounds_hold_along_chains_of_steps(seed, point, scale, edge, where, ulps, at,
                                                aligned, keep):
    # Three steps in a row, each from the point the last one reached and
    # from the G that G_step gave there, so that bounds stand in for G in
    # the later calls.  The largest entry of G is a few ulps below zero
    # ("below") or exactly zero ("zero", b taken from G's own arithmetic)
    # at one point of the chain.  An aligned chain moves along the signs of
    # x, with entries of one magnitude, where the bound's two inequalities
    # hold with equality.  Every bounded column must be below zero and
    # bound every entry of G there; every other column, and every column
    # in exact_cols, must be G bit for bit.
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
    exact_cols = np.sort(rng.choice(N, keep, replace=False))
    Z = problem.G(x)
    for y, d, a, y_next in zip(points, directions, alphas, points[1:]):
        Z, bounded = problem.G_step(y, d, a, Z, exact_cols)
        want = problem.G(y_next)
        if bounded is None:
            assert Z.tobytes() == want.tobytes()
            continue
        assert not bounded[exact_cols].any()
        assert Z[:, ~bounded].tobytes() == want[:, ~bounded].tobytes()
        bound = Z[0, bounded]
        assert (Z[:, bounded] == bound).all()
        assert (bound < 0.0).all()
        assert (want[:, bounded].max(axis=0) <= bound).all()


# an instance with G_step, at a threshold where the budget binds
PARITY_DIMS = (20, 10, 1000, 25.0)


def full_refresh(problem):
    """The same instance without G_step: every refresh evaluates all of G."""
    return dataclasses.replace(problem, G_step=None)


def with_recorded_steps(problem):
    """The same instance with a G_step that records its ``bounded`` masks."""
    masks = []
    G_step = problem.G_step

    def recorded(*args):
        out = G_step(*args)
        masks.append(out[1])
        return out

    return dataclasses.replace(problem, G_step=recorded), masks


def report_fields(report):
    return (report.kind, report.satisfied, report.residual.hex(), report.active,
            report.witness_W.tobytes(), report.tau_max, report.reason)


@pytest.mark.parametrize("seed", range(3))
def test_solve_with_partial_refresh_equals_solve_with_full(seed):
    # From zero and from a start whose multipliers are nonzero on a few
    # columns, which G_step must then evaluate exactly: the same bytes of
    # x and W, status, iterations, trace, final residual and final report.
    K, M, N, b = PARITY_DIMS
    problem, masks = with_recorded_steps(make_norm_opt(K, M, N, b=b, seed=seed))
    s = math.ceil(0.05 * N)
    config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30)
    rng = np.random.default_rng(seed)
    W = np.zeros((M, N))
    cols = rng.choice(N, 20, replace=False)
    W[:, cols] = rng.uniform(0.0, 1.0, (M, cols.size))
    for start in (None, PrimalDualPoint(rng.uniform(0.0, 0.5, K), W)):
        masks.clear()
        got = solve(problem, config, start)
        want = solve(full_refresh(problem), config, start)
        assert got.point.x.tobytes() == want.point.x.tobytes()
        assert got.point.W.tobytes() == want.point.W.tobytes()
        assert (got.status, got.iterations, got.trace) == (want.status, want.iterations, want.trace)
        assert got.final_residual.hex() == want.final_residual.hex()
        assert report_fields(got.final_report) == report_fields(want.final_report)
        assert got.active == want.active
        # the refreshes were partial, and the budget bound some iterates
        assert any(mask is not None for mask in masks)
        assert max(rec.violations for rec in got.trace) > 0
        if start is not None:
            assert all(not mask[cols].any() for mask in masks if mask is not None)


def test_final_report_reuses_Z_only_when_every_bound_is_below_tol(monkeypatch):
    # The final check is given the last refresh's Z when every bound in it
    # is below -tol, and evaluates all of G otherwise.  Its report equals
    # that of a check that evaluates G either way.  Both branches occur
    # over the seeds and tolerances.
    K, M, N, b = 50, 20, 200, 40.0
    given = []
    plain = solver_mod.check_tau_stationary

    def recorded(*args, Z=None, **kwargs):
        given.append(Z)
        return plain(*args, Z=Z, **kwargs)

    monkeypatch.setattr(solver_mod, "check_tau_stationary", recorded)
    branches = set()
    for tol_scale in (1e-9, 1e-6):
        for seed in range(6):
            problem = make_norm_opt(K, M, N, b=b, seed=seed)
            steps = []

            def stepped(*args, G_step=problem.G_step):
                steps.append(G_step(*args))
                return steps[-1]

            s = math.ceil(0.05 * N)
            config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30, tol_scale=tol_scale)
            given.clear()
            res = solve(dataclasses.replace(problem, G_step=stepped), config)
            tol = tol_scale * K * M * N
            assert steps
            Z, bounded = steps[-1]
            reused = bounded is None or bool(Z[0, bounded].max() < -tol)
            assert len(given) == 1 and given[0] is (Z if reused else None)
            want = plain(problem, res.point, config.tau, s, tol=tol)
            assert report_fields(res.final_report) == report_fields(want)
            branches.add(reused)
    assert branches == {True, False}


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
    # and so evaluates G in full: its bounds are those of the exact Z.
    K, M, N, b = PARITY_DIMS
    problem = make_norm_opt(K, M, N, b=b, seed=1)
    built = []
    plain = problems_mod._column_model

    def recorded(xi_sq, Z, cols, x, xd, b):
        built.append(cols)
        return plain(xi_sq, Z, cols, x, xd, b)

    monkeypatch.setattr(problems_mod, "_column_model", recorded)
    rng = np.random.default_rng(3)
    steps = solver_mod._STEPS
    bounded_in_S = 0
    for _ in range(6):
        x0 = rng.uniform(0.0, 0.4, K)
        d0 = rng.uniform(0.0, 0.4, K)
        a0 = float(steps[int(rng.integers(0, 10))])
        Zb, bounded = problem.G_step(x0, d0, a0, problem.G(x0), NO_COLS)
        assert bounded is not None
        x = x0 + a0 * d0
        Z = problem.G(x)
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
