"""Stationarity systems and optimality checks.

The solver's equation system stacks three blocks for a primal-dual pair
(x, W) and an index set V of (row, col) constraint positions:

    [ grad f(x) + sum_V W_mn * grad G_mn(x) ]   (K entries)
    [ G(x) restricted to V                  ]   (|V| entries)
    [ W restricted to the complement of V   ]   (M*N - |V| entries)

Index sets are kept in column-major order so the block layout matches the
flattening of W.  Besides the residual and its smoothed Jacobian, this
module provides three checkers: the projection-based condition with step
size tau, the classical nonnegative-multiplier condition, and the weaker
condition induced by the binary reformulation, plus the largest tau for
which a classical point stays projection-stationary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import column_partition, is_candidate_set, step_norm
from .problems import ProblemInstance, grad_columns, weighted_constraint_hessian

__all__ = [
    "PrimalDualPoint",
    "ActiveSet",
    "StationarityReport",
    "active_set",
    "stationarity_residual",
    "smoothed_jacobian",
    "nnls",
    "check_kkt",
    "check_bkkt",
    "check_tau_stationary",
    "max_stationary_tau",
]


@dataclass(frozen=True)
class PrimalDualPoint:
    """Decision vector x (K,) paired with a multiplier matrix W (M, N)."""

    x: np.ndarray
    W: np.ndarray

    @staticmethod
    def zeros(problem: ProblemInstance) -> "PrimalDualPoint":
        return PrimalDualPoint(np.zeros(problem.K), np.zeros((problem.M, problem.N)))


class ActiveSet:
    """Sorted collection of (row, col) positions in an M x N matrix.

    Pairs are stored column-major (sorted by column, then row) so that
    restrictions of a flattened matrix keep a fixed, reproducible order.
    """

    def __init__(self, pairs, shape):
        M, N = shape
        pairs = [(int(m), int(n)) for m, n in pairs]
        seen = sorted(set(pairs), key=lambda p: (p[1], p[0]))
        if len(seen) != len(pairs):
            raise ValueError("duplicate (row, col) pairs in active set")
        for m, n in seen:
            if not (0 <= m < M and 0 <= n < N):
                raise ValueError(f"pair ({m}, {n}) outside a {M}x{N} matrix")
        self.pairs = tuple(seen)
        self.shape = (int(M), int(N))
        self.rows = np.array([m for m, _ in seen], dtype=int)
        self.cols = np.array([n for _, n in seen], dtype=int)
        self._complement = None

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ActiveSet":
        ns, ms = np.nonzero(mask.T)
        return cls(list(zip(ms.tolist(), ns.tolist())), mask.shape)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[self.rows, self.cols] = True
        return out

    def complement(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and cols of the complementary positions, column-major."""
        if self._complement is None:
            ns, ms = np.nonzero(~self.mask().T)
            self._complement = (ms.copy(), ns.copy())
        return self._complement

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, ActiveSet) and self.shape == other.shape and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.shape, self.pairs))

    def __repr__(self):
        return f"ActiveSet({list(self.pairs)!r}, shape={self.shape})"


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of one optimality check.

    ``kind`` is 'tau', 'kkt', or 'bkkt'; ``residual`` is the norm the check
    thresholded against its tolerance; ``witness_W`` carries recovered
    multipliers when the check computes them; ``reason`` explains a
    structural failure (e.g. infeasible point).
    """

    kind: str
    satisfied: bool
    residual: float
    active: ActiveSet
    witness_W: Optional[np.ndarray] = None
    tau_max: Optional[float] = None
    reason: Optional[str] = None


def active_set(problem: ProblemInstance, point: PrimalDualPoint, tau: float, cols,
               ztol: float = 0.0, Z: Optional[np.ndarray] = None) -> ActiveSet:
    """Positions (m, n) with n in cols where G(x) + tau*W is >= -ztol.

    ``Z`` is G(x) when the caller has it; it is computed otherwise.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if Z is None:
        Z = problem.G(point.x)
    lam = Z + tau * point.W
    mask = np.zeros(lam.shape, dtype=bool)
    cols = np.asarray(cols, dtype=int)
    if cols.size:
        mask[:, cols] = lam[:, cols] >= -ztol
    return ActiveSet.from_mask(mask)


def stationarity_residual(problem: ProblemInstance, point: PrimalDualPoint,
                          V: ActiveSet, Z: Optional[np.ndarray] = None) -> np.ndarray:
    """Stacked residual [gradient block; G on V; W off V], length K + M*N."""
    x, W = point.x, point.W
    if Z is None:
        Z = problem.G(x)
    g = problem.grad_f(x).astype(float, copy=True)
    if len(V):
        g += grad_columns(problem, x, V.rows, V.cols) @ W[V.rows, V.cols]
    crows, ccols = V.complement()
    return np.concatenate([g, Z[V.rows, V.cols], W[crows, ccols]])


def smoothed_jacobian(problem: ProblemInstance, point: PrimalDualPoint,
                      V: ActiveSet, mu: float) -> np.ndarray:
    """Dense smoothed Jacobian of the residual in block order [x; W_V; W off V].

    At mu = 0 this is the exact Jacobian; the smoothing subtracts mu from
    the diagonal of the (V, V) block.
    """
    x, W = point.x, point.W
    K = problem.K
    L = len(V)
    Lbar = problem.M * problem.N - L
    n_tot = K + L + Lbar
    J = np.zeros((n_tot, n_tot))
    theta = problem.hess_f(x).astype(float, copy=True)
    if L:
        theta += weighted_constraint_hessian(problem, x, V.rows, V.cols, W[V.rows, V.cols])
        Gv = grad_columns(problem, x, V.rows, V.cols)
        J[:K, K:K + L] = Gv
        J[K:K + L, :K] = Gv.T
        J[K:K + L, K:K + L] = -mu * np.eye(L)
    J[:K, :K] = theta
    if Lbar:
        J[K + L:, K + L:] = np.eye(Lbar)
    return J


def nnls(A: np.ndarray, b: np.ndarray, tol: float = 1e-10,
         max_iter: Optional[int] = None) -> tuple[np.ndarray, float]:
    """Minimize ||A c - b|| subject to c >= 0 by active-set pivoting.

    Standard Lawson-Hanson: grow a passive set by the most positive dual,
    solve the free least-squares subproblem, and step back to the boundary
    whenever a passive coordinate would turn negative.  Returns the solution
    and the residual norm.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 100 * (m + n)
    c = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b - A @ c
    w = A.T @ resid
    it = 0
    while (~passive).any() and (w[~passive] > tol).any():
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        passive[j] = True
        while True:
            it += 1
            if it > max_iter:
                raise RuntimeError(f"nonnegative least squares failed to converge in {max_iter} iterations")
            z = np.zeros(n)
            sol, *_ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            z[passive] = sol
            if (z[passive] > tol).all():
                c = z
                break
            # step toward z until the first passive coordinate hits zero
            blocking = passive & (z <= tol)
            alpha = np.min(c[blocking] / (c[blocking] - z[blocking]))
            c = c + alpha * (z - c)
            passive &= c > tol
            c[~passive] = 0.0
        resid = b - A @ c
        w = A.T @ resid
    return c, float(np.linalg.norm(resid))


def _zero_pairs_in_cols(Z: np.ndarray, cols, ztol: float = 0.0) -> list[tuple[int, int]]:
    pairs = []
    for n in cols:
        for m in np.flatnonzero(np.abs(Z[:, n]) <= ztol):
            pairs.append((int(m), int(n)))
    return pairs


def _nnls_multiplier_check(problem: ProblemInstance, x: np.ndarray,
                           pairs: list[tuple[int, int]], kind: str,
                           tol: float) -> StationarityReport:
    """Shared body of the two multiplier-based checks."""
    V = ActiveSet(pairs, (problem.M, problem.N))
    g = problem.grad_f(x)
    if len(V) == 0:
        res = float(np.linalg.norm(g))
        return StationarityReport(kind=kind, satisfied=res <= tol, residual=res,
                                  active=V, witness_W=np.zeros((problem.M, problem.N)))
    A = grad_columns(problem, x, V.rows, V.cols)
    coef, res = nnls(A, -g)
    W = np.zeros((problem.M, problem.N))
    W[V.rows, V.cols] = coef
    return StationarityReport(kind=kind, satisfied=res <= tol, residual=res,
                              active=V, witness_W=W)


def check_kkt(problem: ProblemInstance, x: np.ndarray, s: int,
              tol: float = 1e-9) -> StationarityReport:
    """Classical first-order check with nonnegative multipliers.

    Inside the violation budget the gradient must vanish; on the boundary
    the negative gradient must be a nonnegative combination of the active
    constraint gradients (zero entries of zero-max columns).  Points over
    budget report unsatisfied with reason 'infeasible'.
    """
    x = np.asarray(x, dtype=float)
    Z = problem.G(x)
    k = step_norm(Z)
    if k > s:
        return StationarityReport(kind="kkt", satisfied=False, residual=float("inf"),
                                  active=ActiveSet([], (problem.M, problem.N)),
                                  reason="infeasible")
    if k < s:
        res = float(np.linalg.norm(problem.grad_f(x)))
        return StationarityReport(kind="kkt", satisfied=res <= tol, residual=res,
                                  active=ActiveSet([], (problem.M, problem.N)),
                                  witness_W=np.zeros((problem.M, problem.N)))
    part = column_partition(Z)
    pairs = _zero_pairs_in_cols(Z, part.zero)
    return _nnls_multiplier_check(problem, x, pairs, "kkt", tol)


def check_bkkt(problem: ProblemInstance, x: np.ndarray, y: np.ndarray, s: int,
               tol: float = 1e-9) -> StationarityReport:
    """First-order check induced by the binary selection vector y.

    y marks which samples must satisfy their constraints (y_n = 1).  The
    active positions are the zero entries of enforced columns; enforced
    columns must have nonpositive maxima and at least N - s samples must be
    enforced, otherwise the pair (x, y) is rejected outright.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if y.shape != (problem.N,) or not np.isin(y, (0, 1)).all():
        raise ValueError("y must be a binary vector of length N")
    if y.sum() < problem.N - s:
        raise ValueError(f"selection enforces too few samples: {int(y.sum())} < {problem.N - s}")
    Z = problem.G(x)
    enforced = np.flatnonzero(y == 1)
    viol = Z[:, enforced].max(axis=0) > 0.0
    if viol.any():
        bad = enforced[viol]
        raise ValueError(f"x violates enforced samples {bad.tolist()}")
    pairs = _zero_pairs_in_cols(Z, enforced)
    return _nnls_multiplier_check(problem, x, pairs, "bkkt", tol)


def check_tau_stationary(problem: ProblemInstance, point: PrimalDualPoint,
                         tau: float, s: int, tol: float = 1e-9,
                         ztol: Optional[float] = None,
                         Z: Optional[np.ndarray] = None) -> StationarityReport:
    """Projection-based stationarity of (x, W) at step size tau.

    Three conditions: the zero-max columns of G(x) form a valid clamp set
    for G(x) + tau*W at budget s; the nonnegative positions of G(x) + tau*W
    inside those columns are exactly the zero entries of G(x); and the
    stacked residual on that active set vanishes within tol.  ``residual``
    always reports the stacked norm, but ``satisfied`` also requires the two
    combinatorial conditions.  ``ztol`` (default: tol) classifies near-zero
    constraint values as active, so solver output passes without demanding
    exact zeros.  ``Z`` is G(x) when the caller has it; it is computed
    otherwise.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if ztol is None:
        ztol = tol
    if Z is None:
        Z = problem.G(point.x)
    part = column_partition(Z, ztol=ztol)

    clamp_ok = is_candidate_set(Z + tau * point.W, s, part.zero, ztol=ztol)

    V_star = ActiveSet(_zero_pairs_in_cols(Z, part.zero, ztol=ztol),
                       (problem.M, problem.N))
    U = active_set(problem, point, tau, part.zero, ztol=ztol, Z=Z)
    sets_match = U == V_star

    res = float(np.linalg.norm(stationarity_residual(problem, point, V_star, Z=Z)))
    return StationarityReport(
        kind="tau",
        satisfied=clamp_ok and sets_match and res <= tol,
        residual=res,
        active=V_star,
        witness_W=point.W,
        reason=None if (clamp_ok and sets_match) else "index conditions failed",
    )


def max_stationary_tau(problem: ProblemInstance, x: np.ndarray, s: int,
                       rank_tol: float = 1e-10, ztol: float = 0.0) -> float:
    """Largest step size keeping a multiplier-stationary point projection-stationary.

    Solves the square gradient system on the active positions (which must
    have full column rank), takes the largest multiplier column norm over
    the zero-max columns, and divides the s-th largest positive-part norm of
    G(x) by it.  Returns inf when the point is strictly inside the budget or
    the multipliers vanish on the zero-max columns.  ``ztol`` classifies
    near-zero constraint values as active, for numerically converged input.
    """
    x = np.asarray(x, dtype=float)
    Z = problem.G(x)
    part = column_partition(Z, ztol=ztol)
    k = part.positive.size
    if k > s:
        raise ValueError("point violates the step-norm budget")
    if k < s:
        return float("inf")
    pairs = _zero_pairs_in_cols(Z, part.zero, ztol=ztol)
    V = ActiveSet(pairs, (problem.M, problem.N))
    if len(V) == 0:
        return float("inf")
    A = grad_columns(problem, x, V.rows, V.cols)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[-1] <= rank_tol * sv[0]:
        raise ValueError("active constraint gradients are rank deficient")
    coef, *_ = np.linalg.lstsq(A, -problem.grad_f(x), rcond=None)
    W = np.zeros((problem.M, problem.N))
    W[V.rows, V.cols] = coef
    r_star = float(np.linalg.norm(W[:, part.zero], axis=0).max()) if part.zero.size else 0.0
    if r_star == 0.0:
        return float("inf")
    z_s = float(np.sort(part.pos_norms)[::-1][s - 1])
    return z_s / r_star
