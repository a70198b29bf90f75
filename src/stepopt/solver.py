"""Smoothing Newton method for the step-constrained program.

Each iteration selects the clamp columns of G(x) + tau*W, restricts the
stationarity system to the nonnegative positions inside them, and takes a
Newton step on the smoothed system, falling back to the negative residual
when the linear solve is unreliable.  A backtracking search keeps the
iterate's violation count within a relaxed budget (gamma + 1) * s, and the
smoothing weight shrinks geometrically but never above a fixed multiple of
the current residual norm.  Problems that model G along the search ray
(``ProblemInstance.violations_along``) let that search count violations
without evaluating G at every trial step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np
import scipy.linalg

from .geometry import _ranked_positive, column_partition
from .problems import ProblemInstance
from .stationarity import (
    ActiveSet,
    PrimalDualPoint,
    StationarityReport,
    active_set,
    check_tau_stationary,
    stationarity_residual,
)

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "SolverAbort",
    "gamma_for",
    "select_candidate_columns",
    "newton_direction",
    "fallback_direction",
    "feasibility_line_search",
    "solve",
    "quadratic_rate_ratios",
]


# LAPACK's LU factorization and solve, fetched once: the routines that
# scipy.linalg.lu_factor/lu_solve call, without their per-call wrapping.
_getrf, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)

# The line search asks a violation model for about this many entries of G at
# a time: every trial step at once on small problems, a few at a time on
# large ones, so the model's temporaries stay a few times this size.
_MODEL_CHUNK_ENTRIES = 1 << 18


class SolverAbort(RuntimeError):
    """Raised when an iterate or evaluator stops producing finite numbers."""


def gamma_for(alpha: float, s: int) -> float:
    """Line-search slack for a violation level alpha: a/s with a in {2, 3, 4}.

    The anchors are alpha = 0.01, 0.05, 0.1; other levels take the nearest
    anchor (thresholds at 0.03 and 0.075).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if s < 1:
        raise ValueError(f"budget must be >= 1, got {s}")
    a = 2.0 if alpha < 0.03 else (3.0 if alpha < 0.075 else 4.0)
    return a / s


@dataclass
class SolverConfig:
    """Tuning knobs for :func:`solve`.

    ``tol_scale`` is multiplied by K*M*N to form the stopping tolerance.
    ``gamma`` is the relative slack of the line-search violation budget;
    None selects 3/s.  ``pi`` is the backtracking ratio, ``t_max`` the
    largest backtracking exponent, ``rho``/``mu_bar``/``nu`` control the
    smoothing weight, ``pivot_tol`` the relative pivot threshold deciding
    whether a Newton system is trustworthy.
    """

    s: int
    tau: float = 0.75
    max_it: int = 2000
    tol_scale: float = 1e-9
    rho: float = 1e-2
    mu_bar: float = 1e-2
    nu: float = 0.999
    pi: float = 0.85
    gamma: Optional[float] = None
    t_max: int = 50
    pivot_tol: float = 1e-12

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"budget s must be >= 1, got {self.s}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_it < 0:
            raise ValueError(f"max_it must be >= 0, got {self.max_it}")
        if not self.tol_scale > 0:
            raise ValueError(f"tol_scale must be positive, got {self.tol_scale}")
        if not 0 < self.rho:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0 < self.mu_bar:
            raise ValueError(f"mu_bar must be positive, got {self.mu_bar}")
        if not 0 < self.nu < 1:
            raise ValueError(f"nu must be in (0, 1), got {self.nu}")
        if not 0 < self.pi < 1:
            raise ValueError(f"pi must be in (0, 1), got {self.pi}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")
        if not self.pivot_tol > 0:
            raise ValueError(f"pivot_tol must be positive, got {self.pivot_tol}")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace entry; residual/objective/violations are pre-step."""

    iter: int
    residual: float
    objective: float
    violations: int
    step: float
    mu: float
    direction_kind: str


@dataclass(frozen=True)
class SolveResult:
    point: PrimalDualPoint
    status: str
    iterations: int
    final_residual: float
    trace: tuple[IterationRecord, ...]
    final_report: StationarityReport
    active: ActiveSet = field(repr=False, default=None)


def select_candidate_columns(lam: np.ndarray, s: int) -> np.ndarray:
    """Deterministic clamp-column choice for the matrix lam at budget s.

    Keeps the s columns of largest positive-part norm (ties toward the lower
    index) and clamps the rest together with the zero-max columns: the
    ``representative`` of ``candidate_sets(lam, s)``, found without
    enumerating that family.
    """
    if s < 1:
        raise ValueError(f"violation budget must be >= 1, got {s}")
    part = column_partition(lam)
    return np.sort(np.concatenate([_ranked_positive(part)[s:], part.zero]))


def newton_direction(problem: ProblemInstance, point: PrimalDualPoint, V: ActiveSet,
                     mu: float, pivot_tol: float = 1e-12,
                     Z: Optional[np.ndarray] = None) -> tuple[Optional[np.ndarray], bool]:
    """Newton step on the smoothed system, reduced to K + |V| unknowns.

    The complement block of the Jacobian is the identity, so its component
    of the direction is just the negated multiplier values; the remaining
    square system couples x with the multipliers on V.  Returns (direction,
    True) in block order [x; W on V; W off V], or (None, False) when the LU
    factorization shows a relative pivot below ``pivot_tol``.
    """
    x, W = point.x, point.W
    K = problem.K
    if Z is None:
        Z = problem.G(x)
    g = problem.grad_f(x).astype(float, copy=True)
    L = len(V)
    n = K + L
    # [[theta, Gv], [Gv.T, -mu*I]] and its right-hand side, written in
    # place; Fortran order lets getrf factor A without copying it
    A = np.empty((n, n), order="F")
    rhs = np.empty(n)
    if L:
        Gv = problem.grad_G_cols(x, V.rows, V.cols)
        w_v = W[V.rows, V.cols]
        g += Gv @ w_v
        np.add(problem.hess_f(x), problem.weighted_hess_G(x, V.rows, V.cols, w_v),
               out=A[:K, :K])
        A[:K, K:] = Gv
        A[K:, :K] = Gv.T
        # off the diagonal, -mu * 0.0 is -0.0 as in -mu * eye(L); a +0.0
        # there can flip the sign of a zero in the solution
        A[K:, K:] = -mu * 0.0
        A.ravel(order="F")[K * (n + 1)::n + 1] = -mu
        np.negative(Z[V.rows, V.cols], out=rhs[K:])
    else:
        A[:] = problem.hess_f(x)
    np.negative(g, out=rhs[:K])
    scale = np.abs(A).max()
    if not np.isfinite(scale) or scale == 0.0:
        return None, False
    # an exact-zero pivot (info > 0) fails the relative pivot test below
    lu, piv, info = _getrf(A, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if np.abs(lu.diagonal()).min() < pivot_tol * scale:
        return None, False
    head, info = _getrs(lu, piv, rhs, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    if not np.all(np.isfinite(head)):
        return None, False
    return np.concatenate([head, -np.delete(W.T.ravel(), V.flat)]), True


def fallback_direction(problem: ProblemInstance, point: PrimalDualPoint, V: ActiveSet,
                       Z: Optional[np.ndarray] = None) -> np.ndarray:
    """Steepest residual-descent surrogate: the negated stacked residual."""
    return -stationarity_residual(problem, point, V, Z=Z)


def feasibility_line_search(problem: ProblemInstance, x: np.ndarray, d_x: np.ndarray,
                            s: int, gamma: float, pi: float, t_max: int = 50,
                            Z: Optional[np.ndarray] = None,
                            full_step_first: bool = False) -> tuple[int, float, bool]:
    """Smallest backtracking exponent keeping violations within (gamma+1)*s.

    Returns (t, alpha, stalled) where alpha is 1.0 multiplied by pi t times
    in turn; when no exponent up to t_max satisfies the bound, the step is
    zero with stalled=True so the iterate never leaves the relaxed budget
    region.  A trial point whose G is not finite counts as outside it.

    A problem with a ``violations_along`` hook bounds the violation count
    of each trial step, the full step included, from a model of G along
    the ray (``Z`` is G(x), computed when not given), and G is called only
    for a step whose bounds straddle the cap.  ``full_step_first`` tries
    the full step with G before building the model, which pays off when
    the full step is likely to pass.  Without the hook every trial step
    goes to G.  The result equals that of calling G at every trial step.
    """
    bound = (gamma + 1.0) * s

    def within(alpha):
        Zt = problem.G(x + alpha * d_x)
        # step_norm, without its second finiteness pass
        return bool(np.isfinite(Zt).all()) and np.count_nonzero(Zt.max(axis=0) > 0.0) <= bound

    steps = [1.0]
    for _ in range(t_max):
        steps.append(steps[-1] * pi)
    first = 0
    if full_step_first:
        if within(1.0):
            return 0, 1.0, False
        first = 1
    counts = None
    if problem.violations_along is not None and first <= t_max:
        counts = problem.violations_along(x, d_x, problem.G(x) if Z is None else Z)
    if counts is None:
        # no model: every step is undecided and goes to G
        count_bounds = repeat((0, math.inf))
    else:
        chunk = max(1, _MODEL_CHUNK_ENTRIES // (problem.M * problem.N))
        count_bounds = _chunked(counts, steps[first:], chunk)
    for t, alpha, (lo, hi) in zip(range(first, t_max + 1), steps[first:], count_bounds):
        if hi <= bound or (lo <= bound and within(alpha)):
            return t, alpha, False
    return t_max, 0.0, True


def _chunked(counts, alphas, chunk):
    """(lo, hi) violation-count bounds at each step size, ``chunk`` at a time."""
    for first in range(0, len(alphas), chunk):
        lo, hi = counts(np.array(alphas[first:first + chunk]))
        yield from zip(lo.tolist(), hi.tolist())


def solve(problem: ProblemInstance, config: SolverConfig,
          start: Optional[PrimalDualPoint] = None) -> SolveResult:
    """Run the smoothing Newton iteration from ``start`` (default: zeros).

    Terminates with status 'Converged' (residual below tol_scale*K*M*N),
    'MaxIterations', or 'LineSearchStalled' (backtracking hit its cap twice
    in a row).  Raises ValueError when ``start`` does not have shapes (K,)
    and (M, N) or is not finite, and :class:`SolverAbort` on non-finite
    iterates.

    Each iterate evaluates G once, except after a zero step that leaves
    the bytes of x unchanged: then G(x), the active set and the residual
    norm of the previous iterate stand.  The multipliers are updated with
    one dense add of the step put back into matrix form
    (:meth:`ActiveSet.unstack`).
    """
    s, tau = config.s, config.tau
    gamma = config.gamma if config.gamma is not None else 3.0 / s
    K, M, N = problem.K, problem.M, problem.N
    tol = config.tol_scale * K * M * N

    if start is None:
        x, W = np.zeros(K), np.zeros((M, N))
    else:
        x, W = np.array(start.x, dtype=float), np.array(start.W, dtype=float)
        if x.shape != (K,) or W.shape != (M, N):
            raise ValueError(f"start must have x of shape ({K},) and W of shape ({M}, {N}),"
                             f" got {x.shape} and {W.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(W))):
            raise ValueError("start has non-finite entries")

    def refresh(x, W):
        Z = problem.G(x)
        if not np.all(np.isfinite(Z)):
            raise SolverAbort("constraint evaluation produced non-finite values")
        cols = select_candidate_columns(Z + tau * W, s)
        V = active_set(problem, PrimalDualPoint(x, W), tau, cols, Z=Z)
        F = stationarity_residual(problem, PrimalDualPoint(x, W), V, Z=Z)
        return Z, V, float(np.linalg.norm(F))

    Z, V, res = refresh(x, W)
    mu = min(config.mu_bar, config.rho * res)

    trace: list[IterationRecord] = []
    stall_streak = 0
    # A full step tends to follow a full step, and then one G call settles
    # it faster than a model; otherwise the model decides it with the rest.
    full_step_first = False
    it = 0
    while True:
        if res < tol:
            status = "Converged"
            break
        if it >= config.max_it:
            status = "MaxIterations"
            break
        if stall_streak >= 2:
            status = "LineSearchStalled"
            break

        point = PrimalDualPoint(x, W)
        d, solvable = newton_direction(problem, point, V, mu, config.pivot_tol, Z=Z)
        if solvable:
            kind = "newton"
        else:
            d = fallback_direction(problem, point, V, Z=Z)
            kind = "fallback"

        t, alpha, stalled = feasibility_line_search(
            problem, x, d[:K], s, gamma, config.pi, config.t_max, Z=Z,
            full_step_first=full_step_first)
        stall_streak = stall_streak + 1 if stalled else 0
        full_step_first = alpha == 1.0

        # step_norm(Z), without its finiteness pass: refresh has checked Z
        violations = int(np.count_nonzero(Z.max(axis=0) > 0.0))
        trace.append(IterationRecord(
            iter=it, residual=res, objective=problem.f(x),
            violations=violations, step=alpha, mu=mu, direction_kind=kind))

        x_next = x + alpha * d[:K]
        # one add per entry of W, on V and off it alike
        W += alpha * V.unstack(d[K:])
        if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(W))):
            raise SolverAbort(f"non-finite iterate at iteration {it}")

        # A zero step that leaves the bytes of x leaves G(x), and changes W
        # at most in the sign of a zero, which the comparisons and norms of
        # refresh do not see: Z, V and res stand.
        if alpha != 0.0 or x_next.tobytes() != x.tobytes():
            Z, V, res = refresh(x_next, W)
        x = x_next
        mu = min(config.nu * mu, config.rho * res)
        it += 1

    final_pt = PrimalDualPoint(x, W)
    report = check_tau_stationary(problem, final_pt, tau, s, tol=tol, Z=Z)
    return SolveResult(point=final_pt, status=status, iterations=it,
                       final_residual=res, trace=tuple(trace),
                       final_report=report, active=V)


def quadratic_rate_ratios(trace, final_residual: Optional[float] = None) -> list[tuple[int, float]]:
    """Ratios r_{l+1} / r_l^2 of consecutive positive trace residuals.

    ``final_residual`` appends the post-loop residual so the terminal step
    participates; each ratio is tagged with the iteration index of its
    numerator.
    """
    residuals = [(rec.iter, rec.residual) for rec in trace]
    if final_residual is not None and trace:
        residuals.append((trace[-1].iter + 1, float(final_residual)))
    out = []
    for (_, r0), (i1, r1) in zip(residuals, residuals[1:]):
        if r0 > 0.0 and r1 > 0.0:
            out.append((i1, r1 / r0 ** 2))
    return out
