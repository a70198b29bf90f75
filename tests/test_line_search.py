"""Feasibility line search: the violation model against calling G at every step.

For norm-design instances the search bounds violation counts from the
``violations_along`` model of G and calls G only where the bounds straddle
the cap.  On samples larger than one row block the model clears most
columns with a per-column envelope and models only the rest, the set S.
Most tests here compare that path with the plain loop, obtained by
removing the hook, and require the same (t, alpha, stalled); the rest
count G calls against the column-wise model of ``references``, check the
envelope entry by entry, and bound what the model reads and allocates.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepopt.problems as problems_mod
import stepopt.solver as solver_mod
from stepopt.geometry import step_norm
from stepopt.problems import (
    _MODEL_BLOCK_BYTES,
    ProblemInstance,
    load_samples,
    make_norm_opt,
    save_samples,
)
from stepopt.solver import SolverConfig, feasibility_line_search, gamma_for, solve

import references


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


def schedule(monkeypatch, pi, t_max):
    """Make the search try the steps 1, pi, pi*pi, ..., t_max + 1 of them."""
    steps = np.array(references.steps(pi, t_max))
    steps.flags.writeable = False
    monkeypatch.setattr(solver_mod, "_STEPS", steps)
    return steps


def both(problem, x, d, s, gamma, full_step_first=False):
    """(model result, plain-loop result) of one search."""
    Z = problem.G(x)
    got = feasibility_line_search(problem, x, d, s, gamma, Z=Z,
                                  full_step_first=full_step_first)
    want = feasibility_line_search(exact(problem), x, d, s, gamma, Z)
    return got, want


def recorded_searches(problem, config, monkeypatch):
    """Arguments of every line search that ``solve`` runs on ``problem``."""
    calls = []
    plain = solver_mod.feasibility_line_search

    def recorder(problem, x, d_x, s, gamma, Z, full_step_first=False):
        calls.append((x.copy(), d_x.copy(), s, gamma, full_step_first))
        return plain(problem, x, d_x, s, gamma, Z, full_step_first=full_step_first)

    monkeypatch.setattr(solver_mod, "feasibility_line_search", recorder)
    solve(problem, config)
    monkeypatch.undo()
    return calls


# (K, M, N, b, alpha) and the search outcomes their solves on seeds 0-5
# reach: the paper's shape at both thresholds, a smaller copy of the wide
# benchmark shape, whose first full step always overshoots, and a shape
# whose model takes 13 steps a call, so that each stalled search makes
# four calls and the last three leave out the columns already settled
SHAPES = [
    (10, 1, 100, 14.0, 0.05, {"full", "backtracked", "stalled"}),
    (10, 1, 100, 16.0, 0.01, {"full", "backtracked", "stalled"}),
    (10, 1, 100, 14.0, 0.1, {"full", "backtracked"}),
    (50, 20, 200, 40.0, 0.05, {"backtracked", "stalled"}),
    (20, 10, 2000, 25.0, 0.05, {"backtracked", "stalled"}),
]


@pytest.mark.parametrize("K,M,N,b,alpha,reached", SHAPES)
def test_model_matches_plain_loop_on_newton_directions(K, M, N, b, alpha, reached, monkeypatch):
    outcomes = set()
    for seed in range(6):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        s = math.ceil(alpha * N)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
        previous = None
        for *args, first in recorded_searches(problem, config, monkeypatch):
            # G goes first exactly when the previous search took the full step
            assert first == (previous is not None and previous[1] == 1.0)
            for full_step_first in (False, True):
                got, want = both(problem, *args, full_step_first=full_step_first)
                assert got == want
            previous = want
            t, _, stalled = want
            outcomes.add("stalled" if stalled else ("full" if t == 0 else "backtracked"))
    assert outcomes == reached


@pytest.mark.parametrize("K,M,N,b,alpha", [shape[:5] for shape in SHAPES])
def test_solve_with_the_model_equals_solve_without(K, M, N, b, alpha):
    for seed in range(6):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        s = math.ceil(alpha * N)
        config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
        got, want = solve(problem, config), solve(exact(problem), config)
        assert got.point.x.tobytes() == want.point.x.tobytes()
        assert got.point.W.tobytes() == want.point.W.tobytes()
        assert (got.status, got.iterations, got.trace) == (want.status, want.iterations, want.trace)
        assert got.final_residual.hex() == want.final_residual.hex()


def test_wide_solve_evaluates_G_once_per_iterate():
    # No search of these solves straddles the cap, so G runs only where
    # an iterate is refreshed: in full at the start, and through G_step
    # after each nonzero step.  The line searches decide every step from
    # the model, a zero step keeps the last G, and the final check takes
    # the last refresh's Z, so each solve calls G exactly once.  Some
    # refreshes bound columns, which shows in Z differing from G there.
    partial = 0
    for seed in range(6):
        plain = make_norm_opt(50, 20, 200, b=40.0, seed=seed)
        problem, calls = counting(plain)
        refreshed = []

        def counted_step(x, d, alpha, Z, ceiling):
            out = plain.G_step(x, d, alpha, Z, ceiling)
            refreshed.append((out, plain.G(x + alpha * d)))
            return out

        problem = dataclasses.replace(problem, G_step=counted_step)
        s = math.ceil(0.05 * 200)
        config = SolverConfig(s=s, gamma=gamma_for(0.05, s), max_it=30)
        res = solve(problem, config)
        assert len(refreshed) == sum(rec.step > 0 for rec in res.trace)
        assert calls[0] == 1
        partial += sum(Z.tobytes() != want.tobytes() for Z, want in refreshed)
    assert partial > 0


@pytest.mark.parametrize("pi,t_max", [(0.85, 50), (0.5, 10), (0.95, 3), (0.85, 1), (0.85, 0)])
def test_model_matches_plain_loop_on_random_directions(pi, t_max, monkeypatch):
    schedule(monkeypatch, pi, t_max)
    rng = np.random.default_rng(11)
    for seed in range(4):
        problem = make_norm_opt(8, 3, 60, b=12.0, seed=seed)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, 8)
            d = rng.standard_normal(8) * rng.choice([0.1, 1.0, 10.0])
            s = int(rng.integers(1, 10))
            for full_step_first in (False, True):
                got, want = both(problem, x, d, s, 0.5, full_step_first)
                assert got == want


@pytest.mark.parametrize("per_chunk", [1, 6, 51])
@pytest.mark.parametrize("K,M,N,b,alpha", [(10, 1, 100, 14.0, 0.05), (50, 20, 200, 40.0, 0.05)])
def test_chunked_decision_matches_the_step_loop(K, M, N, b, alpha, per_chunk, monkeypatch):
    # count evaluates the model over a set of L columns in chunks of
    # about per_chunk * N / L steps, per_chunk when it models every
    # column, which caps the size of its temporaries; the reference walks
    # the same model bounds one step at a time.
    # Both must call G on the same steps, with and without the model,
    # wherever the chunks begin, and the model must reject, accept or
    # leave open each step up to the decision as it does in one chunk.
    s = math.ceil(alpha * N)
    config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
    spanning = 0
    for seed in range(3):
        problem = make_norm_opt(K, M, N, b=b, seed=seed)
        searches = recorded_searches(problem, config, monkeypatch)
        for x, d, s, gamma, first in searches:
            Z = problem.G(x)
            steps = solver_mod._STEPS[first:]
            cap = (gamma + 1.0) * s
            whole = problem.violations_along(x, d, Z, steps, cap)
            monkeypatch.setattr(problems_mod, "_MODEL_CHUNK_ENTRIES", per_chunk * M * N)
            lo, hi = problem.violations_along(x, d, Z, steps, cap)
            for hook in (problem, exact(problem)):
                counted, calls = counting(hook)
                got = feasibility_line_search(counted, x, d, s, gamma, Z=Z,
                                              full_step_first=first)
                ref, ref_calls = counting(hook)
                want = references.line_search(ref, x, d, s, gamma, solver_mod._PI,
                                              solver_mod._T_MAX, Z, first)
                assert got == want and calls[0] == ref_calls[0]
            monkeypatch.undo()
            upto = want[0] - first + 1
            assert (decisions(lo, hi, cap)[:upto] == decisions(*whole, cap)[:upto]).all()
            # the decision lies past the first per_chunk steps
            spanning += want[0] - first >= per_chunk
    if per_chunk < 51:
        assert spanning > 0


def decisions(lo, hi, cap):
    """Per step: 1 when the bounds accept it, -1 when they reject it, else 0."""
    return np.where(hi <= cap, 1, np.where(lo > cap, -1, 0))


def model_bounds(problem, x, d, alphas, cap):
    """The (lo, hi) bounds of every step in ``alphas`` against ``cap``."""
    return problem.violations_along(x, d, problem.G(x), alphas, cap)


def test_model_bounds_hold_at_every_step():
    rng = np.random.default_rng(5)
    problem = make_norm_opt(12, 4, 80, b=15.0, seed=2)
    alphas = np.array([0.85 ** t for t in range(60)])
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 12)
        d = rng.standard_normal(12) * 3.0
        for cap in (0.0, 3.0, 40.0, 80.0):
            lo, hi = model_bounds(problem, x, d, alphas, cap)
            for a, l, h in zip(alphas, lo, hi):
                assert l <= step_norm(problem.G(x + a * d)) <= h


# K and (M, N) with M*N below one row block of the model's coefficient
# pass, and M*N over two blocks but not a multiple of one: there the
# samples span several blocks and the model runs its envelope
BLOCK_K = 40
BLOCK_ROWS = _MODEL_BLOCK_BYTES // (8 * BLOCK_K)
BLOCK_SHAPES = [(2, 100), (3, 700)]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(BLOCK_SHAPES), seed=st.integers(0, 3),
       point=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.3, 1.0, 3.0]),
       b=st.sampled_from([20.0, 40.0, 80.0]), chunk=st.integers(1, 20),
       cap=st.sampled_from([0.0, 5.0, 50.0, 300.0]))
def test_model_bounds_hold_in_every_chunk(shape, seed, point, scale, b, chunk, cap):
    # count evaluates the model over a set of L columns about ``chunk`` *
    # N / L steps at a time, which caps the size of its temporaries.
    # Every step must still be bounded.
    M, N = shape
    assert M * N < BLOCK_ROWS or (M * N > 2 * BLOCK_ROWS and M * N % BLOCK_ROWS)
    problem = make_norm_opt(BLOCK_K, M, N, b=b, seed=seed)
    rng = np.random.default_rng(point)
    x = rng.uniform(-1.5, 1.5, BLOCK_K)
    d = rng.standard_normal(BLOCK_K) * scale
    steps = solver_mod._STEPS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems_mod, "_MODEL_CHUNK_ENTRIES", chunk * M * N)
        lo, hi = problem.violations_along(x, d, problem.G(x), steps, cap)
    assert lo.size == hi.size == steps.size
    for a, l, h in zip(steps, lo, hi):
        assert l <= step_norm(problem.G(x + a * d)) <= h


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.sampled_from(BLOCK_SHAPES), seed=st.integers(0, 3),
       point=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0, 1e3]),
       b=st.sampled_from([1e-3, 20.0, 80.0, 1e4]), gathered=st.booleans())
def test_model_entries_are_within_their_band_of_G(shape, seed, point, scale, b, gathered):
    # The rounding bound of the model, entry by entry: at every trial step
    # a, each entry of G(x + a*d) differs from the model's (1, a, a^2) @
    # rows, evaluated as count evaluates it, by at most the band of its
    # column.  The model's own G(x), a BLAS product summed in another order
    # than G's einsum, is part of what the band covers.  The columns are
    # read in place or gathered over several blocks, and x and d range over
    # six orders of magnitude.
    M, N = shape
    problem = make_norm_opt(BLOCK_K, M, N, b=b, seed=seed)
    rng = np.random.default_rng(point)
    x = rng.uniform(-1.5, 1.5, BLOCK_K) * scale
    d = rng.standard_normal(BLOCK_K) * scale
    cols = np.sort(rng.choice(N, int(rng.integers(1, N + 1)), replace=False)) if gathered else None
    xd = np.stack([x * x, 2.0 * x * d, d * d], axis=1)
    rows, bands = problems_mod._column_model(problem.xi_sq, cols, xd, b)
    steps = np.append(solver_mod._STEPS, 0.0)
    powers = np.stack([np.ones_like(steps), steps, steps * steps], axis=1)
    top = (powers @ rows).reshape(len(steps), M, -1)
    band = powers[:, ::2] @ bands
    for a, model, e in zip(steps, top, band):
        G = problem.G(x + a * d)
        assert (np.abs((G if cols is None else G[:, cols]) - model) <= e).all()


def test_model_bounds_do_not_depend_on_the_chunk_size():
    # The chunk size caps only the size of count's temporaries: with the
    # envelope, at every step and cap, (lo, hi) come out the same at the
    # default and at one step per chunk of every column.  Half the
    # directions are random, half lead back towards x = 0, where the
    # bounds accept a large step and the steps after it must be bounded
    # too.
    K, M, N = ENV_DIMS
    rng = np.random.default_rng(17)
    steps = solver_mod._STEPS
    for seed in range(3):
        problem = make_norm_opt(K, M, N, b=40.0, seed=seed)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, K)
            Z = problem.G(x)
            random = rng.standard_normal(K) * rng.choice([0.3, 1.0, 3.0])
            back = -x * rng.uniform(0.2, 1.0) + 0.1 * rng.standard_normal(K)
            for d in (random, back):
                for cap in (5.0, 50.0):
                    want = problem.violations_along(x, d, Z, steps, cap)
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(problems_mod, "_MODEL_CHUNK_ENTRIES", M * N)
                        got = problem.violations_along(x, d, Z, steps, cap)
                    assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_model_keeps_its_own_copy_of_the_steps():
    # A caller that overwrites its array of steps after the call changes
    # none of the bounds: the model copied the steps when it was called,
    # and its bounds share no memory with them.
    K, M, N = 12, 4, 80
    problem = make_norm_opt(K, M, N, b=15.0, seed=2)
    rng = np.random.default_rng(7)
    steps = solver_mod._STEPS
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, K)
        d = rng.standard_normal(K) * 3.0
        want = [b.tolist() for b in model_bounds(problem, x, d, steps, 10.0)]
        alphas = steps.copy()
        got = problem.violations_along(x, d, problem.G(x), alphas, 10.0)
        assert not any(np.shares_memory(b, alphas) for b in got)
        alphas[:] = 1.0
        assert [b.tolist() for b in got] == want


def test_model_rejects_increasing_steps():
    problem = make_norm_opt(5, 2, 30, b=10.0, seed=3)
    x, d = np.full(5, 0.5), np.ones(5)
    Z = problem.G(x)
    for alphas in ([0.5, 1.0], [1.0, 0.25, 0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="non-increasing"):
            problem.violations_along(x, d, Z, np.array(alphas), 1.0)
    # equal steps in a row are allowed, and so is an empty table
    assert len(model_bounds(problem, x, d, np.array([1.0, 0.5, 0.5]), 1.0)[0]) == 3
    assert [b.size for b in problem.violations_along(x, d, Z, np.empty(0), 1.0)] == [0, 0]


def model_builds(monkeypatch):
    """A list that records the number of columns of each model build."""
    builds = []
    plain = problems_mod._column_model

    def recorded(xi_sq, cols, xd, b):
        builds.append(xi_sq.shape[0] if cols is None else len(cols))
        return plain(xi_sq, cols, xd, b)

    monkeypatch.setattr(problems_mod, "_column_model", recorded)
    return builds


def test_stalled_search_evaluates_few_columns(monkeypatch):
    # A stalled search on a wide-size instance decides all 51 steps.  The
    # envelope clears most columns at every step, so the model covers
    # under a quarter of them.
    K, M, N, b, alpha = 20, 10, 2000, 25.0, 0.05
    problem = make_norm_opt(K, M, N, b=b, seed=0)
    s = math.ceil(alpha * N)
    config = SolverConfig(s=s, gamma=gamma_for(alpha, s), max_it=30)
    stalled = 0
    searches = recorded_searches(problem, config, monkeypatch)
    builds = model_builds(monkeypatch)
    for x, d, s, gamma, _ in searches:
        Z = problem.G(x)
        builds.clear()
        if not feasibility_line_search(problem, x, d, s, gamma, Z)[2]:
            continue
        stalled += 1
        assert 0 < sum(builds) < N / 4
    assert stalled


def landing_on_zero(tmp_path, step):
    """Two equal columns that G puts exactly on zero at x + step*d.

    Returns (problem with a counted G, calls, x, d).  b is taken from G's
    own arithmetic at that point, so the model, rounded differently, reads
    a few ulps off zero there and its bounds straddle a cap of one column.
    Every larger step leaves both columns violating.
    """
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(4)
    x, d = rng.uniform(0.1, 0.5, 4), rng.uniform(2.0, 4.0, 4)
    path = tmp_path / "samples.csv"
    save_samples(np.tile(xi, (2, 1, 1)), path)
    y = x + step * d
    b = float(np.einsum("nmk,k->mn", load_samples(path).xi_sq, y * y)[0, 0])
    problem, calls = counting(load_samples(path, b=b))
    assert problem.G(y).tolist() == [[0.0, 0.0]]
    return problem, calls, x, d


def test_column_landing_exactly_on_zero_is_decided_by_G(tmp_path, monkeypatch):
    # Both columns land on zero at the fourth step, 1/8.  With room for one
    # violating column, the model rejects 1, 1/2 and 1/4 on its own and
    # leaves 1/8 to G, which accepts it.
    schedule(monkeypatch, 0.5, 50)
    problem, calls, x, d = landing_on_zero(tmp_path, 0.125)
    Z = problem.G(x)

    calls[0] = 0
    got = feasibility_line_search(problem, x, d, s=1, gamma=0.5, Z=Z)
    assert got == (3, 0.125, False)
    assert calls[0] == 1          # the undecided step
    calls[0] = 0
    assert feasibility_line_search(problem, x, d, s=1, gamma=0.5, Z=Z,
                                   full_step_first=True) == got
    assert calls[0] == 2          # the full step and the undecided one

    plain, plain_calls = counting(exact(problem))
    assert feasibility_line_search(plain, x, d, s=1, gamma=0.5, Z=Z) == got
    assert plain_calls[0] == 4


def test_model_decides_the_full_step(tmp_path, monkeypatch):
    problem, calls = counting(make_norm_opt(8, 3, 60, b=12.0, seed=0))
    x = np.full(8, 0.1)
    Z = problem.G(x)

    def search(d, **kw):
        calls[0] = 0
        got = feasibility_line_search(problem, x, d, 1, 0.5, Z, **kw)
        made = calls[0]
        assert got == feasibility_line_search(exact(problem), x, d, 1, 0.5, Z)
        return got, made

    # the model accepts the full step: no G call, one when G goes first
    short = np.full(8, 0.1)
    assert search(short) == ((0, 1.0, False), 0)
    assert search(short, full_step_first=True) == ((0, 1.0, False), 1)

    # the model rejects it and accepts a shorter step on its own
    long = np.full(8, 2.0)
    (t, _, stalled), n = search(long)
    assert t > 0 and not stalled and n == 0
    assert search(long, full_step_first=True)[1] == 1

    # the bounds straddle the cap at the full step, which G then accepts
    schedule(monkeypatch, 0.5, 50)
    problem, calls, x, d = landing_on_zero(tmp_path, 1.0)
    Z = problem.G(x)
    for full_step_first in (False, True):
        calls[0] = 0
        assert feasibility_line_search(problem, x, d, s=1, gamma=0.5, Z=Z,
                                       full_step_first=full_step_first) == (0, 1.0, False)
        assert calls[0] == 1


def test_model_reads_the_samples_in_place():
    # A call allocates a few (M, N) arrays and one row block at a time, far
    # less than the samples: here every column violates at x, so the model
    # covers them all and reads the samples in place.
    problem = make_norm_opt(50, 20, 200, b=40.0, seed=0)
    rng = np.random.default_rng(0)
    x, d = rng.standard_normal(50), rng.standard_normal(50)
    Z = problem.G(x)
    assert (Z.max(axis=0) > 0.0).all()
    for cap in (0.0, 100.0, 1e9):
        tracemalloc.start()
        try:
            assert problem.violations_along(x, d, Z, solver_mod._STEPS, cap) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < problem.xi_sq.nbytes // 4


def test_model_gives_way_to_the_plain_loop_on_huge_directions(monkeypatch):
    problem = make_norm_opt(5, 2, 30, b=10.0, seed=3)
    x = np.full(5, 0.5)
    Z = problem.G(x)
    steps = schedule(monkeypatch, 0.85, 20)
    for d in (np.full(5, 1e200), np.array([np.nan, 0.0, 0.0, 0.0, 0.0])):
        counted, calls = counting(problem)
        assert problem.violations_along(x, d, Z, steps, 1.5) is None
        # G itself overflows at the trial points of the huge direction
        with np.errstate(over="ignore", invalid="ignore"):
            got = feasibility_line_search(counted, x, d, 1, 0.5, Z=Z)
        # every trial point has a non-finite G and counts as rejected
        assert got == (20, 0.0, True)
        assert calls[0] == 21
    # G values near overflow: the model declines, though G is still finite
    huge = make_norm_opt(5, 2, 30, b=1e301, seed=3)
    assert huge.violations_along(x, np.ones(5), huge.G(x), steps, 1.5) is None


def test_model_and_step_bounds_decline_overflowing_products_without_a_warning():
    # Huge samples times a direction that passes the |x|^2 + |d|^2 check:
    # the model's products overflow, and so does the bound of G_step at a
    # step where G itself is still finite.  Both give way, the model with
    # None and G_step with G, and the suite turns a RuntimeWarning into an
    # error, so none may reach the caller.
    rng = np.random.default_rng(0)
    problem = problems_mod._build_norm_opt(rng.standard_normal((400, 4, 30)) * 1e79, 9.7e-55,
                                           0.5, 0.5, None)
    x = np.full(30, 1e-90)
    Z = problem.G(x)
    assert np.isfinite(Z).all()
    assert problem.violations_along(x, np.full(30, 1e76), Z, solver_mod._STEPS, 10) is None
    d = np.zeros(30)
    d[0] = 1e76
    want = problem.G(x + 0.02 * d)
    assert np.isfinite(want).all()
    got = problem.G_step(x, d, 0.02, Z, np.zeros(problem.N))
    assert got.tobytes() == want.tobytes()


def exp_problem():
    """K = 1: f = (x0 - 1000)^2 and G = -exp(x0), which overflows past 709."""
    return ProblemInstance(
        K=1, M=1, N=1,
        f=lambda x: float((x[0] - 1000.0) ** 2),
        grad_f=lambda x: np.array([2.0 * (x[0] - 1000.0)]),
        hess_lagrangian=lambda x, rows, cols, w: np.array([[2.0 - np.exp(x[0]) * np.sum(w)]]),
        f_batch=lambda X: (X[:, 0] - 1000.0) ** 2,
        G=lambda x: np.array([[-np.exp(x[0])]]),
        G_batch=lambda X: -np.exp(X[:, :1, None]),
        grad_G_cols=lambda x, rows, cols: np.full((1, len(cols)), -np.exp(x[0])),
    )


def test_nonfinite_trial_point_counts_as_rejected():
    problem = exp_problem()
    with np.errstate(over="ignore"):
        # the full step lands on x0 = 1000, where G is -inf
        assert feasibility_line_search(problem, np.zeros(1), np.array([1000.0]),
                                       s=1, gamma=3.0, Z=problem.G(np.zeros(1))) == (3, 0.85 * 0.85 * 0.85, False)
        res = solve(problem, SolverConfig(s=1))
    assert res.status == "LineSearchStalled"
    assert np.all(np.isfinite(res.point.x)) and res.point.x[0] < 710.0


# samples over many row blocks, so that the model runs its envelope
ENV_DIMS = (40, 3, 700)


def with_reference_model(problem):
    """The same instance with the column-wise model of ``references`` as its hook."""
    def hook(x, d, Z, alphas, cap):
        return references.violation_model(problem, x, d, Z, alphas)

    return dataclasses.replace(problem, violations_along=hook)


def searched(problem, x, d, s, gamma, Z, first):
    """(result, G calls) of one search on ``problem``."""
    counted, calls = counting(problem)
    return feasibility_line_search(counted, x, d, s, gamma, Z, full_step_first=first), calls[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 3), point=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.01, 0.3, 1.0, 3.0]), edge=st.sampled_from(["none", "below", "zero"]),
       ulps=st.integers(1, 4), at=st.integers(0, 50), s=st.integers(1, 60),
       gamma=st.sampled_from([0.0, 0.5, 2.0]), first=st.booleans(), aligned=st.booleans())
def test_envelope_clears_only_columns_below_zero(seed, point, scale, edge, ulps, at, s, gamma,
                                                 first, aligned):
    # Random points and directions, with the largest entry of G a few ulps
    # below zero at x ("below") or exactly zero at one trial step ("zero",
    # b taken from G's own arithmetic there).  Every column the envelope
    # clears at a step a, including the largest float below its threshold,
    # a tiny step and a = 0, has every entry of G(x + a*d) below zero; the
    # search decides as the plain loop does and calls G no more often than
    # with the column-wise model over every column.  An aligned direction
    # has entries of one magnitude and the signs of x, where the envelope's
    # two inequalities hold with equality, so its thresholds sit within its
    # rounding slack of where G first reaches zero.
    K, M, N = ENV_DIMS
    rng = np.random.default_rng(point)
    if aligned:
        signs = rng.choice([-1.0, 1.0], K)
        x, d = rng.uniform(0.1, 1.0) * signs, scale * signs
    else:
        x = rng.uniform(-1.0, 1.0, K)
        d = rng.standard_normal(K) * scale
    xi_sq = make_norm_opt(K, M, N, seed=seed).xi_sq
    b = 20.0
    if edge != "none":
        y = x if edge == "below" else x + solver_mod._STEPS[at] * d
        b = float(np.einsum("nmk,k->mn", xi_sq, y * y).max())
        for _ in range(ulps if edge == "below" else 0):
            b = float(np.nextafter(b, np.inf))
    problem = make_norm_opt(K, M, N, b=b, seed=seed)
    Z = problem.G(x)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        plain = problems_mod._clear_steps

        def recorded(*args):
            seen.append(plain(*args))
            return seen[-1]

        patch.setattr(problems_mod, "_clear_steps", recorded)
        assert problem.violations_along(x, d, Z, solver_mod._STEPS, (gamma + 1.0) * s) is not None
    theta, = seen
    below = [float(np.nextafter(t, 0.0)) for t in theta[(theta > 0.0) & (theta <= 1.0)][:20]]
    for a in list(solver_mod._STEPS) + [1e-8, 1e-300, 0.0] + below:
        cleared = theta > a
        if cleared.any():
            assert problem.G(x + a * d)[:, cleared].max() < 0.0
    got, calls = searched(problem, x, d, s, gamma, Z, first)
    assert got == searched(exact(problem), x, d, s, gamma, Z, first)[0]
    assert calls <= searched(with_reference_model(problem), x, d, s, gamma, Z, first)[1]


def test_model_grows_its_columns_until_the_step_is_decided(monkeypatch):
    # From x = 0 every entry of G is -b, so the envelope clears every
    # column at the smallest steps and S starts empty.  At the larger
    # steps it clears few, and the model adds columns, smallest threshold
    # first, until each step is rejected or accepted.  The direction's
    # entries differ, so the envelope is loose and the model takes several
    # rounds; S at least doubles in each, so they stay logarithmic in N.
    K, M, N = 20, 10, 2000
    problem = make_norm_opt(K, M, N, b=25.0, seed=1)
    x = np.zeros(K)
    d = np.abs(np.random.default_rng(0).standard_normal(K))
    Z = problem.G(x)
    builds = model_builds(monkeypatch)
    for s, gamma in ((5, 0.5), (100, 0.03)):
        builds.clear()
        got, calls = searched(problem, x, d, s, gamma, Z, False)
        assert 1 < len(builds) <= 2 + math.log2(N)
        assert got == searched(exact(problem), x, d, s, gamma, Z, False)[0]
        assert got[0] > 0 and not got[2]
        assert calls <= searched(with_reference_model(problem), x, d, s, gamma, Z, False)[1]
