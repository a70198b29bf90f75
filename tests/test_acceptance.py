"""End-to-end acceptance gate: one test per shipping requirement.

Each test pins one behavior the package guarantees, at fixed seeds and
tolerances, so `pytest -v tests/test_acceptance.py` reads as a requirement
checklist with a single pass/fail line per item.  Wall-clock guards use
generous desk-scale budgets.
"""

import itertools
import math
import time

import numpy as np

from stepopt import (
    ActiveSet,
    GridSpec,
    PrimalDualPoint,
    ProblemInstance,
    SolverConfig,
    candidate_sets,
    check_bkkt,
    check_kkt,
    check_tau_stationary,
    cli,
    column_partition,
    dkw_sample_size,
    feasibility_sample_size,
    fixed_point_check,
    grid_search,
    make_counterexample,
    make_norm_opt,
    monte_carlo_feasibility,
    normal_cone_member,
    project_step,
    quadratic_rate_ratios,
    solve,
    stationarity_residual,
    step_norm,
    tangent_cone_member,
)
from stepopt.problems import norm_opt_draw

import references
from reshape_fixtures import reshape_constraints

WORKED = np.array([[2.0, 2.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]])
# same matrix with one positive column removed: one column may be released
WORKED_RELEASED = np.array([[2.0, 0.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]])


# ---------------------------------------------------------------- helpers

def brute_force_projections(Z, s):
    """Minimum clamp distance and all minimizing matrices, by enumeration.

    Tries every subset of s columns allowed to keep positive entries and
    clamps the rest to their entrywise minimum with zero.  Returns the
    smallest Frobenius distance and the set of matrices attaining it
    (deduplicated bytewise; clamping an already nonpositive column is a
    no-op, so distinct subsets can give the same matrix).
    """
    M, N = Z.shape
    by_dist = {}
    for keep in itertools.combinations(range(N), s):
        P = Z.copy()
        others = [n for n in range(N) if n not in keep]
        P[:, others] = np.minimum(P[:, others], 0.0)
        d = float(np.linalg.norm(P - Z))
        by_dist.setdefault(d, set()).add(P.tobytes())
    best = min(by_dist)
    return best, by_dist[best]


def reshape_problem(M, N, c):
    """f(x) = 0.5*||x||^2 + c.x with G(x) the col-major reshape of x."""
    K = M * N
    c = np.asarray(c, dtype=float)
    return ProblemInstance(
        K=K, M=M, N=N,
        f=lambda x: float(0.5 * x @ x + c @ x),
        grad_f=lambda x: x + c,
        hess_lagrangian=lambda x, rows, cols, w: np.eye(K),
        f_batch=lambda X: 0.5 * (X * X).sum(axis=1) + X @ c,
        **reshape_constraints(M, N),
    )


def constructed_triple(rng, break_clamp=False):
    """A (Z, W, tau, s) tuple that is a projection fixed point by design.

    Z has exactly s columns with one positive entry, one or two zero-max
    columns, and the rest strictly negative; W lives on the zero entries of
    the zero-max columns with column norms strictly inside the clamp bound.
    With break_clamp the norms overshoot the bound instead, so the zero-max
    columns displace a kept column and the fixed-point property fails.
    """
    M, N, s = 3, 5, 2
    Z = rng.uniform(-2.0, -0.1, size=(M, N))
    pos_cols = rng.choice(N, size=s, replace=False)
    zero_cols = [n for n in range(N) if n not in pos_cols][: int(rng.integers(1, 3))]
    for c in pos_cols:
        Z[rng.integers(0, M), c] = rng.uniform(0.5, 2.0)
    for n in zero_cols:
        Z[rng.integers(0, M), n] = 0.0
    part = column_partition(Z)
    z_s = np.sort(part.pos_norms)[::-1][s - 1]
    tau = float(rng.uniform(0.1, 1.0))
    W = np.zeros_like(Z)
    for n in zero_cols:
        rows = np.flatnonzero(Z[:, n] == 0.0)
        W[rows, n] = rng.uniform(0.1, 1.0, size=rows.size)
        factor = 1.15 if break_clamp else float(rng.uniform(0.1, 0.9))
        W[:, n] *= factor * z_s / (tau * np.linalg.norm(W[:, n]))
    return Z, W, tau, s


def projection_membership(Z, W, tau, s, tol=1e-9):
    return min(np.linalg.norm(P - Z) for P in project_step(Z + tau * W, s)) <= tol


def full_gradient_norm(prob, x, W):
    """Norm of grad f(x) + sum over all (m, n) of W_mn * grad G_mn(x)."""
    rows, cols = np.nonzero(W)
    g = prob.grad_f(x) + prob.grad_G_cols(x, rows, cols) @ W[rows, cols]
    return float(np.linalg.norm(g))


def zeroing_cost(Z, W):
    """Linear coefficient making the reshape problem's gradient vanish.

    The gradient block is x + c plus W scattered over the zero entries of
    the zero-max columns; returns c cancelling it at x = vec(Z).
    """
    M, N = Z.shape
    x = Z.reshape(-1, order="F")
    scatter = np.zeros(M * N)
    part = column_partition(Z)
    for n in part.zero:
        for m in np.flatnonzero(Z[:, n] == 0.0):
            scatter[n * M + m] = W[m, n]
    return -x - scatter


def pack_point(pt, V):
    return np.concatenate([pt.x, pt.W[V.rows, V.cols], np.delete(pt.W.T.ravel(), V.flat)])


def unpack_point(prob, w, V):
    W = np.zeros((prob.M, prob.N))
    L = len(V)
    W[V.rows, V.cols] = w[prob.K:prob.K + L]
    W[references.complement(V)] = w[prob.K + L:]
    return PrimalDualPoint(w[:prob.K].copy(), W)


def numeric_jacobian(fun, w0, h=1e-6):
    F0 = fun(w0)
    J = np.empty((F0.size, w0.size))
    for j in range(w0.size):
        hj = h * max(1.0, abs(float(w0[j])))
        wp = w0.copy()
        wm = w0.copy()
        wp[j] += hj
        wm[j] -= hj
        J[:, j] = (fun(wp) - fun(wm)) / (2.0 * hj)
    return J


# --------------------------------------------------------------- criteria

def test_criterion_01_projection_matches_subset_oracle():
    # 1000 random 3x5 matrices, budgets 1 and 2: distance within 1e-12 of
    # the enumerated optimum and the exact same set of minimizers
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    for _ in range(1000):
        Z = rng.uniform(-2.0, 2.0, size=(3, 5))
        for s in (1, 2):
            members = project_step(Z, s)
            got_d = min(float(np.linalg.norm(P - Z)) for P in members)
            want_d, want_set = brute_force_projections(Z, s)
            assert abs(got_d - want_d) <= 1e-12
            assert {P.tobytes() for P in members} == want_set
    assert time.perf_counter() - start < 5.0


def test_criterion_02_worked_fixtures_reproduce_exactly():
    assert step_norm(WORKED) == 2
    part = column_partition(WORKED)
    assert part.positive.tolist() == [0, 1]
    assert part.zero.tolist() == [2]
    assert part.negative.tolist() == [3]

    # budget 1: the two tied positive columns give two candidate clamp sets
    fam = candidate_sets(WORKED, 1)
    assert {frozenset(t) for t in fam.sets} == {frozenset({0, 2}), frozenset({1, 2})}
    want = {
        np.array([[0.0, 2.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]]).tobytes(),
        np.array([[2.0, 0.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]]).tobytes(),
    }
    assert {P.tobytes() for P in project_step(WORKED, 1)} == want

    # boundary point: normal cone rays live on the zero entry of the
    # zero-max column and nowhere else
    W = np.zeros_like(WORKED)
    assert normal_cone_member(WORKED, W, 2)
    W[0, 2] = 3.0
    assert normal_cone_member(WORKED, W, 2)
    W[0, 2] = -1e-6
    assert not normal_cone_member(WORKED, W, 2)
    W = np.zeros_like(WORKED)
    W[1, 2] = 1.0
    assert not normal_cone_member(WORKED, W, 2)
    W = np.zeros_like(WORKED)
    W[0, 0] = 1.0
    assert not normal_cone_member(WORKED, W, 2)

    # interior point: the normal cone collapses to the origin
    W = np.zeros_like(WORKED_RELEASED)
    assert normal_cone_member(WORKED_RELEASED, W, 2)
    W[0, 1] = 1e-6
    assert not normal_cone_member(WORKED_RELEASED, W, 2)

    # boundary tangents cannot increase the zero entry of the zero-max column
    D = np.ones_like(WORKED)
    D[0, 2] = -0.5
    assert tangent_cone_member(WORKED, D, 2)
    D[0, 2] = 0.5
    assert not tangent_cone_member(WORKED, D, 2)

    # with slack one zero-max column may be released, but not both at once
    D = np.zeros_like(WORKED_RELEASED)
    D[0, 1] = 1.0
    assert tangent_cone_member(WORKED_RELEASED, D, 2)
    D = np.zeros_like(WORKED_RELEASED)
    D[0, 2] = 1.0
    assert tangent_cone_member(WORKED_RELEASED, D, 2)
    D[0, 1] = 1.0
    assert not tangent_cone_member(WORKED_RELEASED, D, 2)


def test_criterion_03_fixed_point_and_stationarity_equivalences():
    # both characterizations agree with first-principles definitions on 200
    # constructed and 200 random triples, with zero disagreements at 1e-9
    rng = np.random.default_rng(53)
    triples = []
    for i in range(200):
        # cycle: full fixed point, broken gradient, broken clamp bound
        break_clamp = i % 5 == 4
        broken_grad = i % 5 == 3
        Z, W, tau, s = constructed_triple(rng, break_clamp=break_clamp)
        if broken_grad:
            c = rng.uniform(0.5, 1.5, size=Z.size)
        else:
            c = zeroing_cost(Z, W)
        triples.append((Z, W, tau, s, c))
    for i in range(200):
        Z = rng.uniform(-2.0, 2.0, size=(3, 4))
        W = rng.uniform(-1.0, 1.0, size=(3, 4))
        if rng.random() < 0.5:
            W[:, rng.integers(0, 4, size=2)] = 0.0
        tau = float(rng.uniform(0.05, 1.5))
        s = int(rng.integers(1, 4))
        c = zeroing_cost(Z, W) if i % 2 else rng.uniform(-1.0, 1.0, size=Z.size)
        triples.append((Z, W, tau, s, c))

    for Z, W, tau, s, c in triples:
        member = projection_membership(Z, W, tau, s)
        assert fixed_point_check(Z, W, tau, s, tol=1e-9) == member

        prob = reshape_problem(*Z.shape, c)
        x = Z.reshape(-1, order="F").copy()
        pt = PrimalDualPoint(x, W)
        report = check_tau_stationary(prob, pt, tau, s, tol=1e-9)
        want = member and full_gradient_norm(prob, x, W) <= 1e-9
        assert report.satisfied == want


def test_criterion_04_jacobian_matches_finite_differences():
    prob = make_norm_opt(5, 2, 8, seed=11)
    rng = np.random.default_rng(4)
    for trial in range(20):
        # keep |x_k| >= 0.1 so central differences never cross the
        # negative-part kink of the objective
        x = rng.uniform(0.1, 1.5, size=prob.K) * rng.choice([-1.0, 1.0], size=prob.K)
        W = rng.uniform(-1.0, 1.0, size=(prob.M, prob.N))
        mask = rng.random((prob.M, prob.N)) < 0.4
        if trial == 0:
            mask[:] = False
        if trial == 1:
            mask[:] = True
        V = ActiveSet(np.argwhere(mask), mask.shape)
        pt = PrimalDualPoint(x, W)
        J = references.smoothed_jacobian(prob, pt, V, mu=0.0)

        def residual_of(w):
            return stationarity_residual(prob, unpack_point(prob, w, V), V)

        J_fd = numeric_jacobian(residual_of, pack_point(pt, V))
        assert np.linalg.norm(J_fd - J) <= 1e-5 * max(1.0, float(np.linalg.norm(J)))


def test_criterion_05_two_variable_instance_separates_the_checks():
    prob = make_counterexample()
    x = np.array([1.0, 1.0])

    bk = check_bkkt(prob, x, np.array([1, 1]), 1)
    assert bk.satisfied
    assert bk.residual < 1e-9
    assert np.allclose(bk.witness_W, [[1.0, 1.0]], rtol=0, atol=1e-9)

    kk = check_kkt(prob, x, 1)
    assert not kk.satisfied
    assert abs(kk.residual - 2.0) <= 1e-9

    grid = GridSpec(lower=[0.0, 0.0], upper=[5.0, 5.0], points_per_dim=501)
    best_x, best_f = grid_search(prob, 1, grid)
    assert best_f <= 1e-4


def test_criterion_06_quadratic_tail_on_seeded_instance():
    K, M, N = 10, 1, 100
    for alpha in (0.01, 0.05, 0.1):
        s = math.ceil(alpha * N)
        prob = make_norm_opt(K, M, N, b=14.0, seed=17)
        start = time.perf_counter()
        res = solve(prob, SolverConfig(s=s))
        elapsed = time.perf_counter() - start
        assert res.status == "Converged"
        assert res.final_residual < 1e-9 * K * M * N
        ratios = quadratic_rate_ratios(res.trace, res.final_residual)
        assert len(ratios) >= 3
        assert all(r <= 1e3 for _, r in ratios[-3:])
        assert elapsed < 10.0


def test_criterion_07_step_size_robustness():
    objectives = []
    for tau in (1e-4, 1e-3, 1e-2, 1e-1, 0.75, 1.0):
        prob = make_norm_opt(10, 1, 100, b=14.0, seed=17)
        res = solve(prob, SolverConfig(s=5, tau=tau))
        assert res.status == "Converged"
        objectives.append(prob.f(res.point.x))
    spread = max(objectives) - min(objectives)
    assert spread <= 0.01 * max(abs(v) for v in objectives)


def test_criterion_08_joint_constraint_scale_run():
    K = M = N = 100
    s = math.ceil(0.05 * N)
    prob = make_norm_opt(K, M, N, b=150.0, seed=0)
    start = time.perf_counter()
    # tightened stopping tolerance: the clamped columns are residual
    # components, so driving the residual to round-off makes the returned
    # point satisfy the violation budget exactly rather than within dust
    res = solve(prob, SolverConfig(s=s, tol_scale=1e-16))
    elapsed = time.perf_counter() - start
    assert res.status in ("Converged", "MaxIterations")
    assert step_norm(prob.G(res.point.x)) <= s
    assert res.final_residual < 1e-6 * K * M * N
    report = check_tau_stationary(prob, res.point, 0.75, s,
                                  tol=1e-6 * K * M * N, ztol=1e-9)
    assert report.satisfied
    assert report.residual < 1e-6 * K * M * N
    assert elapsed < 120.0


def test_criterion_09_sample_size_bounds_and_monte_carlo():
    assert dkw_sample_size(0.05, 0.05) == 738
    assert feasibility_sample_size(0.05, 5, 0.05) == 3429
    assert feasibility_sample_size(0.05, 5, 0.05, exact=True) == 3426

    # sharper root never exceeds the simplified bound on a 1000-point grid
    for alpha in np.linspace(0.01, 0.3, 10):
        for s in range(10):
            for beta in np.geomspace(1e-3, 0.2, 10):
                exact = feasibility_sample_size(alpha, s, beta, exact=True)
                assert exact <= feasibility_sample_size(alpha, s, beta)

    # a point with true violation far below alpha passes nearly every trial
    start = time.perf_counter()
    draw = norm_opt_draw(10, 1, b=10.0)
    rate = monte_carlo_feasibility(draw, 0.5 * np.ones(10), alpha=0.1, s=5,
                                   N=689, trials=200, seed=20260816)
    assert rate >= 0.95
    assert time.perf_counter() - start < 60.0


def test_criterion_10_equal_seeds_give_byte_identical_traces(tmp_path):
    argv = ["solve", "--K", "10", "--M", "1", "--N", "100", "--alpha", "0.05",
            "--b", "14.0", "--seed", "17", "--trace"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(argv + [str(first)]) == 0
    assert cli.main(argv + [str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == cli.TRACE_HEADER
    assert len(lines) >= 2
