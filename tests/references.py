"""Straightforward versions of routines that the library computes in array form.

Each function here is the plain loop that a vectorized library routine
replaced, kept so that tests can compare the two bit for bit or byte for
byte.  They share no code with the routines they check beyond input
validation, the partition of columns and the LP line wrapping, except the
tau check, which is the composition of layer functions that the library
check replaced.
"""
import itertools
import math

import numpy as np

from stepopt.baselines import _wrap
from stepopt.geometry import FAMILY_CAP, _as_matrix, column_partition


def candidate_sets(Z, s, ztol=0.0):
    """(sets, r, representative), one tuple per ``itertools.combinations`` member."""
    Z = _as_matrix(Z)
    part = column_partition(Z, ztol=ztol)
    gp = part.positive
    r = min(int(s), gp.size)
    zero = tuple(int(c) for c in part.zero)

    if r == 0 or r == gp.size:
        keep_all = frozenset(int(c) for c in gp[:r]) if r else frozenset()
        drop = tuple(sorted(set(int(c) for c in gp) - keep_all))
        only = tuple(sorted(drop + zero))
        return (only,), r, only

    norms = part.pos_norms[gp]
    thresh = np.sort(part.pos_norms)[::-1][r - 1]
    must_keep = [int(c) for c in gp[norms > thresh]]
    tied = [int(c) for c in gp[norms == thresh]]
    fill = r - len(must_keep)
    if math.comb(len(tied), fill) > FAMILY_CAP:
        raise RuntimeError("tie explosion")

    gp_set = set(int(c) for c in gp)
    sets = []
    for extra in itertools.combinations(sorted(tied), fill):
        kept = set(must_keep) | set(extra)
        sets.append(tuple(sorted((gp_set - kept) | set(zero))))
    sets = tuple(sorted(set(sets)))

    ranked = gp[np.lexsort((gp, -norms))]
    rep_keep = set(int(c) for c in ranked[:r])
    rep = tuple(sorted((gp_set - rep_keep) | set(zero)))
    return sets, r, rep


def project_step(Z, s):
    """One fresh copy of Z per member, clamped on its columns."""
    Z = _as_matrix(Z)
    out = []
    for cols in candidate_sets(Z, s)[0]:
        P = Z.copy()
        idx = list(cols)
        P[:, idx] = np.minimum(P[:, idx], 0.0)
        out.append(P)
    return out


def _num(v):
    return repr(float(v))


def to_lp(xi_sq, s, b, big_M, seed):
    """LP text of the big-M model, formatted one numpy scalar at a time."""
    N, M, K = xi_sq.shape
    head = [
        "\\ mixed-binary reformulation of the sampled norm-design program",
        f"\\ K={K} M={M} N={N} s={s} b={_num(b)}"
        + (f" seed={seed}" if seed is not None else ""),
    ]
    obj = _wrap([f"- x{k + 1}" for k in range(K)], joiner=" ")
    rows = [" card: " + _wrap([f"y{n + 1}" for n in range(N)]) + f" >= {N - s}"]
    for n in range(N):
        for m in range(M):
            quad = _wrap([f"{_num(xi_sq[n, m, k])} x{k + 1} ^2" for k in range(K)])
            rows.append(
                f" g{m + 1}_{n + 1}: [ {quad} ] + {_num(big_M)} y{n + 1}"
                f" <= {_num(big_M + b)}")
    bounds = [f" x{k + 1} >= 0" for k in range(K)]
    names_y = [f"y{n + 1}" for n in range(N)]
    binary = [" " + " ".join(names_y[i:i + 10]) for i in range(0, N, 10)]
    return "\n".join(
        head
        + ["Minimize", " obj: " + obj, "Subject To"]
        + rows
        + ["Bounds"] + bounds
        + ["Binary"] + binary
        + ["End", ""])


def norm_opt_draw(K, M, b=100.0):
    """Sampler drawing all ``count`` scenarios in one (count, M, K) array."""

    def draw(x, count, rng):
        x_sq = np.asarray(x, dtype=float) ** 2
        xi = rng.standard_normal((count, M, K))
        return np.einsum("imk,k->mi", xi * xi, x_sq) - b

    return draw


def steps(pi, t_max):
    """The trial steps 1, pi, pi*pi, ..., t_max + 1 of them, each the
    previous one times pi."""
    out = [1.0]
    for _ in range(t_max):
        out.append(out[-1] * pi)
    return out


def line_search(problem, x, d_x, s, gamma, pi, t_max, Z, full_step_first):
    """(t, alpha, stalled) of the backtracking search one trial step at a time.

    The step sizes are multiplied out in turn, the model's (lo, hi) bounds
    are read a step at a time, and G decides each step whose bounds
    straddle the cap, in order.
    """
    bound = (gamma + 1.0) * s

    def within(alpha):
        Zt = problem.G(x + alpha * d_x)
        return bool(np.isfinite(Zt).all()) and np.count_nonzero(Zt.max(axis=0) > 0.0) <= bound

    alphas = steps(pi, t_max)
    first = 0
    if full_step_first:
        if within(1.0):
            return 0, 1.0, False
        first = 1
    bounds = None
    if problem.violations_along is not None and first <= t_max:
        bounds = problem.violations_along(x, d_x, Z, np.array(alphas[first:]), bound)
    if bounds is None:
        pairs = itertools.repeat((0, math.inf))
    else:
        pairs = zip(bounds[0].tolist(), bounds[1].tolist())

    for t, alpha, (lo, hi) in zip(range(first, t_max + 1), alphas[first:], pairs):
        if hi <= bound or (lo <= bound and within(alpha)):
            return t, alpha, False
    return t_max, 0.0, True


def violation_model(problem, x, d, Z, alphas):
    """(lo, hi) bounds of the norm-design violation model over every column.

    The model of ``NormOptInstance.violations_along`` without its envelope
    or its chunks: the coefficients of all M*N entries from one product
    over all samples, the same band, and the column-wise bounds at every
    step.  None where the library model gives up on large values.
    """
    safe = 1e300
    unit = np.finfo(float).eps / 2
    N, M, K = problem.xi_sq.shape
    if not x @ x + d @ d <= safe:
        return None
    xd = np.array([2.0 * x * d, d * d]).T.copy()
    cd = problem.xi_sq.reshape(N * M, K) @ xd
    coef = np.empty((3, M, N))
    coef[0] = Z
    coef[1:] = cd.reshape(N, M, 2).transpose(2, 1, 0)
    mag = np.abs(coef).max(axis=1)
    if not mag.max() + problem.b <= safe:
        return None
    c = (4 * K + 32) * unit
    e0 = (3.0 * c) * mag[0] + c * (2.0 * problem.b + np.finfo(float).tiny)
    e2 = (2.0 * c) * mag[2]
    # the model's entries as one product of the step powers (1, a, a^2)
    # with the coefficient rows, rounded as the library rounds them
    a = np.asarray(alphas, dtype=float)
    powers = np.stack([np.ones_like(a), a, a * a], axis=1)
    top = (powers @ coef.reshape(3, M * N)).reshape(len(a), M, N).max(axis=1)
    band = powers[:, ::2] @ np.stack([e0, e2])
    lo = np.count_nonzero(top > band, axis=1)
    hi = N - np.count_nonzero(top < -band, axis=1)
    return lo.astype(np.intp), hi.astype(np.intp)


def stacked_update(W, V, d_w, alpha):
    """W plus alpha times the multiplier step of a stacked direction.

    The step is [d_w on V; -W off V], the multiplier blocks of a direction
    of K + M*N entries, put back into (M, N) form through the column-major
    positions of V and of the rest, and added to a copy of W in one pass.
    """
    M, N = V.shape
    off = np.ones(M * N, dtype=bool)
    off[V.flat] = False
    stacked = np.concatenate([d_w, -W.T.ravel()[off]])
    step = np.empty(M * N)
    step[V.flat] = stacked[:len(V)]
    step[off] = stacked[len(V):]
    out = W.copy()
    out += alpha * step.reshape(N, M).T
    return out


def check_tau_stationary(problem, point, tau, s, tol, ztol):
    """(satisfied, residual, active, reason) of the projection check, built
    from the layer functions.

    Clamp-set membership is read from the enumerated family above; the
    zeros of G(x) and the active set of G(x) + tau*W on the zero-max
    columns are two ``ActiveSet`` objects compared for equality.
    """
    from stepopt.geometry import zero_mask
    from stepopt.stationarity import ActiveSet, active_set, stationarity_residual

    Z = problem.G(point.x)
    zero = column_partition(Z, ztol=ztol).zero
    clamp_ok = tuple(zero.tolist()) in candidate_sets(Z + tau * point.W, s, ztol)[0]
    V_star = ActiveSet.from_mask(zero_mask(Z, zero, ztol))
    sets_match = active_set(Z + tau * point.W, zero, ztol=ztol) == V_star
    res = float(np.linalg.norm(stationarity_residual(problem, point, V_star, Z=Z)))
    ok = clamp_ok and sets_match
    return ok and res <= tol, res, V_star, None if ok else "index conditions failed"
