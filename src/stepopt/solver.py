"""Smoothing Newton method for the step-constrained program.

Each iteration selects the clamp columns of G(x) + tau*W, restricts the
stationarity system to the nonnegative positions inside them, and takes a
Newton step on the smoothed system, falling back to the negative residual
when the linear solve is unreliable.  A backtracking search keeps the
iterate's violation count within a relaxed budget (gamma + 1) * s, and the
smoothing weight shrinks geometrically but never above a fixed multiple of
the current residual norm.  Problems that model G along the search ray
(``ProblemInstance.violations_along``) let that search count violations
without evaluating G at every trial step: the model bounds the count at
every trial step against the search's cap, and G decides only the steps
whose bounds straddle it.  Problems that bound G after a step
(``ProblemInstance.G_step``) let the iteration evaluate G at a new iterate
only on the columns where the multipliers are nonzero and those the bound
cannot prove negative.  The other columns hold the bound; they are
negative with it as with G, so the clamp columns, the active set, the
residual and the trace come out the same.  The line search passes that
G on to the model, which reads it only as upper bounds.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .geometry import _as_matrix, _ranked
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

# A Newton system whose LU factorization has a pivot below this fraction of
# the system's largest entry is not trusted; the fallback direction is used.
_PIVOT_TOL = 1e-12

# The smoothing weight starts at min(_MU_BAR, _RHO * ||F||) and then becomes
# min(_NU * mu, _RHO * ||F||) after each iteration.
_RHO = 1e-2
_MU_BAR = 1e-2
_NU = 0.999

# The line search tries the read-only steps _STEPS: 1, _PI, _PI*_PI, ...,
# _T_MAX + 1 of them, each the previous one times _PI.
_PI = 0.85
_T_MAX = 50
_STEPS = np.cumprod(np.r_[1.0, np.full(_T_MAX, _PI)])
_STEPS.flags.writeable = False


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


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for :func:`solve`.

    ``s`` is the violation budget and ``tau`` the step size of the
    tau-stationarity the solve aims at.  ``tol_scale`` is multiplied by
    K*M*N to form the stopping tolerance.  ``gamma`` is the relative slack
    of the line-search violation budget; None selects 3/s.  The smoothing
    schedule and the backtracking of the line search are fixed by the
    method: the constants ``_RHO``, ``_MU_BAR``, ``_NU``, ``_PI`` and
    ``_T_MAX`` of this module.  ``s`` and ``max_it`` must be integers and
    ``tau``, ``tol_scale`` and ``gamma`` positive and finite.  The config
    is frozen, so its fields keep the values its checks accepted.
    """

    s: int
    tau: float = 0.75
    max_it: int = 2000
    tol_scale: float = 1e-9
    gamma: Optional[float] = None

    def __post_init__(self):
        for name, least in (("s", 1), ("max_it", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("tau", "tol_scale", "gamma"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


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
    enumerating that family.  The columns come from one clamp mask over the
    column maxima, so they are sorted by construction.
    """
    if s < 1:
        raise ValueError(f"violation budget must be >= 1, got {s}")
    lam = _as_matrix(lam)
    col_max = lam.max(axis=0)
    clamp = col_max == 0.0
    pos = np.flatnonzero(col_max > 0.0)
    if pos.size > s:
        # positive-part norms of the violating columns only
        clamp[_ranked(pos, np.linalg.norm(np.maximum(lam[:, pos], 0.0), axis=0))[s:]] = True
    return np.flatnonzero(clamp)


def newton_direction(problem: ProblemInstance, point: PrimalDualPoint, V: ActiveSet,
                     mu: float, F: np.ndarray,
                     Gv: Optional[np.ndarray]) -> tuple[Optional[np.ndarray], bool]:
    """Newton step on the smoothed system, reduced to K + |V| unknowns.

    The complement block of the Jacobian is the identity, so the step of
    the multipliers off V is their negation, which the caller applies; the
    square system solved here couples x with the multipliers on V.  Its
    right-hand side is the head ``F[:K + |V|]`` of the stacked residual at
    (point, V).  ``Gv`` is the gradient columns of V at x, None when V is
    empty.  Returns (direction, True), the K + |V| entries [x; W on V], or
    (None, False) when the LU factorization shows a pivot below
    ``_PIVOT_TOL`` times the largest entry of the system.
    """
    x, W = point.x, point.W
    K = problem.K
    L = len(V)
    n = K + L
    # [[theta, Gv], [Gv.T, -mu*I]], written in place; Fortran order lets
    # getrf factor it without copying
    A = np.empty((n, n), order="F")
    A[:K, :K] = problem.hess_lagrangian(x, V.rows, V.cols, W[V.rows, V.cols])
    if L:
        A[:K, K:] = Gv
        A[K:, :K] = Gv.T
        A[K:, K:] = 0.0
        A.ravel(order="F")[K * (n + 1)::n + 1] = -mu
    rhs = -F[:n]
    scale = np.abs(A).max()
    if not np.isfinite(scale) or scale == 0.0:
        return None, False
    # an exact-zero pivot (info > 0) fails the relative pivot test below
    lu, piv, info = _getrf(A, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if np.abs(lu.diagonal()).min() < _PIVOT_TOL * scale:
        return None, False
    head, info = _getrs(lu, piv, rhs, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    if not np.isfinite(head).all():
        return None, False
    return head, True


def fallback_direction(F: np.ndarray) -> np.ndarray:
    """Steepest residual-descent surrogate: the negated residual ``F``.

    ``solve`` passes the head ``F[:K + |V|]``, so the direction has the
    entries of a Newton direction.
    """
    return -F


def feasibility_line_search(problem: ProblemInstance, x: np.ndarray, d_x: np.ndarray,
                            s: int, gamma: float, Z: np.ndarray,
                            full_step_first: bool = False) -> tuple[int, float, bool]:
    """Smallest backtracking exponent keeping violations within (gamma+1)*s.

    Returns (t, alpha, stalled) where alpha is the trial step ``_STEPS[t]``;
    when no exponent up to ``_T_MAX`` satisfies the bound, the step is zero
    with stalled=True so the iterate never leaves the relaxed budget
    region.  A trial point whose G is not finite counts as outside it.

    A problem with a ``violations_along`` hook bounds the violation count
    of each trial step, the full step included, from a model of G along
    the ray (``Z`` is G(x), or the problem's own ``G_step`` output there,
    read only by the model), and G is called only for a step whose bounds
    straddle the cap.  The hook is given the cap, so that it tightens its
    bounds only where the cap leaves a step open.
    ``full_step_first`` tries the full step with G before building the
    model, which pays off when the full step is likely to pass.  Without
    the hook every trial step goes to G.  The result equals that of
    calling G at every trial step.

    The search decides the steps in order: the first step whose upper
    bound is within the cap ends the search unless G accepts one of the
    straddling steps before it.  Without the hook every step straddles,
    with bounds (0, inf).
    """
    bound = (gamma + 1.0) * s

    def within(alpha):
        Zt = problem.G(x + alpha * d_x)
        # step_norm, without its second finiteness pass
        return bool(np.isfinite(Zt).all()) and np.count_nonzero(Zt.max(axis=0) > 0.0) <= bound

    steps = _STEPS
    start = 0
    if full_step_first:
        if within(1.0):
            return 0, 1.0, False
        start = 1
    bounds = None
    if problem.violations_along is not None:
        bounds = problem.violations_along(x, d_x, Z, steps[start:], bound)
    if bounds is None:
        n = steps.size - start
        bounds = np.zeros(n, dtype=np.intp), np.full(n, np.inf)
    lo, hi = bounds
    # the first step the bounds accept, and before it, in order, the steps
    # whose bounds straddle the cap
    sure = np.flatnonzero(hi <= bound)
    stop = int(sure[0]) if sure.size else lo.size
    for j in np.flatnonzero(lo[:stop] <= bound).tolist():
        if within(steps[start + j]):
            return start + j, float(steps[start + j]), False
    if sure.size:
        return start + stop, float(steps[start + stop]), False
    return steps.size - 1, 0.0, True


def solve(problem: ProblemInstance, config: SolverConfig,
          start: Optional[PrimalDualPoint] = None) -> SolveResult:
    """Run the smoothing Newton iteration from ``start`` (default: zeros).

    Terminates with status 'Converged' (residual below tol_scale*K*M*N),
    'MaxIterations', or 'LineSearchStalled' (backtracking hit its cap twice
    in a row).  Raises ValueError when ``start`` does not have shapes (K,)
    and (M, N) or is not finite, and :class:`SolverAbort` on non-finite
    iterates, including G(x) + tau*W overflowing.

    Each iterate evaluates G once and forms G(x) + tau*W once, for the
    clamp columns and the active set V alike; the gradient columns of V
    are computed once too, for the residual and the Newton step.  The
    start calls ``problem.G``; at the default start, the origin, the
    norm-design instance gives -b there without reading its samples.  After
    a step, a problem with ``G_step`` evaluates G only on the columns where
    W is nonzero and on those its bound cannot prove negative, and keeps
    the bound on the rest, where W is zero.  Those columns are negative in
    G(x) + tau*W with the bound or with G, so no clamp column, active set,
    residual or trace count changes.  The search hands Z to the model as
    it is, and only the model's envelope reads the bounds; the final check
    reuses Z when every bound is below -tol and evaluates all of G
    otherwise.  A zero step (a stalled search) leaves x and W as they are, so G(x), V, its
    gradient columns and the residual stand, and only mu moves on.  The
    Newton and fallback directions read that residual rather than
    assembling it again, and both have the K + |V| entries [x; W on V].
    The identity block of the Jacobian gives the multipliers off V the
    step -W, so the multiplier update is one dense add of alpha times -W
    with the direction written in on V.
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

    def refresh(x, W, Z):
        # W is finite, so lam is finite unless Z is not or the sum
        # overflows; both raise SolverAbort, which a warning would only echo
        with np.errstate(over="ignore", invalid="ignore"):
            lam = Z + tau * W
        if not np.isfinite(lam).all():
            if not np.isfinite(Z).all():
                raise SolverAbort("constraint evaluation produced non-finite values")
            raise SolverAbort("G(x) + tau*W overflowed")
        point = PrimalDualPoint(x, W)
        V = active_set(lam, select_candidate_columns(lam, s))
        Gv = problem.grad_G_cols(x, V.rows, V.cols) if len(V) else None
        F = stationarity_residual(problem, point, V, Z=Z, Gv=Gv)
        return V, Gv, F, float(np.linalg.norm(F))

    Z, bounded = problem.G(x), None
    V, Gv, F, res = refresh(x, W, Z)
    mu = min(_MU_BAR, _RHO * res)

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
        d, solvable = newton_direction(problem, point, V, mu, F, Gv)
        if solvable:
            kind = "newton"
        else:
            d = fallback_direction(F[:K + len(V)])
            kind = "fallback"

        t, alpha, stalled = feasibility_line_search(
            problem, x, d[:K], s, gamma, Z, full_step_first=full_step_first)
        stall_streak = stall_streak + 1 if stalled else 0
        full_step_first = alpha == 1.0

        # step_norm(Z), without its finiteness pass: refresh has checked Z
        violations = int(np.count_nonzero(Z.max(axis=0) > 0.0))
        trace.append(IterationRecord(
            iter=it, residual=res, objective=problem.f(x),
            violations=violations, step=alpha, mu=mu, direction_kind=kind))

        if alpha != 0.0:
            x_next = x + alpha * d[:K]
            # one add per entry of W, on V and off it alike
            dW = np.negative(W)
            dW[V.rows, V.cols] = d[K:]
            np.multiply(dW, alpha, out=dW)
            W += dW
            if not (np.isfinite(x_next).all() and np.isfinite(W).all()):
                raise SolverAbort(f"non-finite iterate at iteration {it}")
            if problem.G_step is None:
                Z = problem.G(x_next)
            else:
                # exact where W is nonzero, so that lam is exact there
                Z, bounded = problem.G_step(x, d[:K], alpha, Z, np.flatnonzero(W.any(axis=0)))
            x = x_next
            V, Gv, F, res = refresh(x, W, Z)
        mu = min(_NU * mu, _RHO * res)
        it += 1

    final_pt = PrimalDualPoint(x, W)
    # The report reads a column below -tol, its zero tolerance, only as
    # below it, and W is zero on the bounded columns, so bounds below -tol
    # serve it as G would.
    reuse = bounded is None or Z[0, bounded].max() < -tol
    report = check_tau_stationary(problem, final_pt, tau, s, tol=tol, Z=Z if reuse else None)
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
