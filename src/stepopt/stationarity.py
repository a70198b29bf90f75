"""Stationarity systems and optimality checks.

The solver's equation system stacks three blocks for a primal-dual pair
(x, W) and an index set V of (row, col) constraint positions:

    [ grad f(x) + sum_V W_mn * grad G_mn(x) ]   (K entries)
    [ G(x) restricted to V                  ]   (|V| entries)
    [ W restricted to the complement of V   ]   (M*N - |V| entries)

Index sets are kept in column-major order so the block layout matches the
flattening of W.  Every set the module builds is the True positions of a
test on G(x) or G(x) + tau*W over some sorted columns: the active set of a
Newton step, the zeros that the tau check compares it with, and the zeros
that the multiplier checks fit multipliers on.  Besides the residual, this
module provides three checkers: the projection-based condition with step
size tau, the classical nonnegative-multiplier condition, and the weaker
condition induced by the binary reformulation, plus the largest tau for
which a classical point stays projection-stationary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _as_matrix, _check_nonnegative, column_partition, is_candidate_set
from .problems import ProblemInstance

__all__ = [
    "PrimalDualPoint",
    "ActiveSet",
    "StationarityReport",
    "active_set",
    "stationarity_residual",
    "check_kkt",
    "check_bkkt",
    "check_tau_stationary",
    "max_stationary_tau",
]

# max_stationary_tau takes the active gradients as rank deficient when their
# smallest singular value is at most this fraction of the largest.
_RANK_TOL = 1e-10


def _index(v) -> int:
    """An index of an active-set pair as an int; a float, which int() would
    truncate, a bool or any other type raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"active-set index {v!r} is not an integer")
    return int(v)


@dataclass(frozen=True)
class PrimalDualPoint:
    """Decision vector x (K,) paired with a multiplier matrix W (M, N)."""

    x: np.ndarray
    W: np.ndarray


class ActiveSet:
    """Sorted collection of (row, col) positions in an M x N matrix.

    Pairs are stored column-major (sorted by column, then row) so that
    restrictions of a flattened matrix keep a fixed, reproducible order.
    ``rows`` and ``cols`` hold them as read-only index arrays, and ``flat``
    as the read-only, strictly increasing positions ``cols*M + rows`` in
    the column-major flattening ``W.T.ravel()``; ``pairs`` gives the same
    positions as a tuple of (row, col) int pairs.  The entries of a matrix
    off the set are ``np.delete(W.T.ravel(), V.flat)``, in column-major
    order.  The indices of ``pairs`` are ints or NumPy integers; a bool, a
    float or anything else raises ValueError.
    """

    def __init__(self, pairs, shape):
        M, N = shape
        pairs = [(_index(m), _index(n)) for m, n in pairs]
        seen = sorted(set(pairs), key=lambda p: (p[1], p[0]))
        if len(seen) != len(pairs):
            raise ValueError("duplicate (row, col) pairs in active set")
        for m, n in seen:
            if not (0 <= m < M and 0 <= n < N):
                raise ValueError(f"pair ({m}, {n}) outside a {M}x{N} matrix")
        self._init(np.array([m for m, _ in seen], dtype=np.intp),
                   np.array([n for _, n in seen], dtype=np.intp), (M, N))

    @classmethod
    def _on_columns(cls, mask: np.ndarray, cols: np.ndarray, shape) -> "ActiveSet":
        """The True positions of an (M, len(cols)) mask over the columns
        ``cols`` of a matrix of this shape; ``cols`` must be a strictly
        increasing index array within the shape."""
        # nonzero of the transpose is column-major and unique
        at, rows = np.nonzero(mask.T)
        out = cls.__new__(cls)
        out._init(rows, cols[at], shape)
        return out

    def _init(self, rows, cols, shape):
        M, N = shape
        flat = cols * M + rows
        for a in (rows, cols, flat):
            a.flags.writeable = False
        self.rows, self.cols, self.flat = rows, cols, flat
        self.shape = (int(M), int(N))
        self._pairs = None

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        if self._pairs is None:
            self._pairs = tuple(zip(self.rows.tolist(), self.cols.tolist()))
        return self._pairs

    def __len__(self):
        return self.rows.size

    def __eq__(self, other):
        return (isinstance(other, ActiveSet) and self.shape == other.shape
                and np.array_equal(self.flat, other.flat))

    def __hash__(self):
        return hash((self.shape, self.flat.tobytes()))

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
    reason: Optional[str] = None


def active_set(lam: np.ndarray, cols) -> ActiveSet:
    """Positions (m, n) with n in cols where ``lam`` = G(x) + tau*W is >= 0.

    Only the columns in ``cols`` are read.  They may come in any order and
    repeat, but a negative index raises ValueError.
    """
    cols = np.asarray(cols, dtype=int)
    if cols.size and cols.min() < 0:
        raise ValueError(f"column index {cols.min()} is negative")
    # ascending and unique, so that the set comes out column-major
    picked = np.zeros(lam.shape[1], dtype=bool)
    picked[cols] = True
    cols = np.flatnonzero(picked)
    return ActiveSet._on_columns(lam[:, cols] >= 0.0, cols, lam.shape)


def stationarity_residual(problem: ProblemInstance, point: PrimalDualPoint,
                          V: ActiveSet, Z: Optional[np.ndarray] = None,
                          Gv: Optional[np.ndarray] = None) -> np.ndarray:
    """Stacked residual [gradient block; G on V; W off V], length K + M*N.

    ``Z`` is G(x) and ``Gv`` the gradient columns of V at x when the
    caller has them; they are computed otherwise.
    """
    x, W = point.x, point.W
    if Z is None:
        Z = problem.G(x)
    g = problem.grad_f(x).astype(float, copy=True)
    if len(V):
        if Gv is None:
            Gv = problem.grad_G_cols(x, V.rows, V.cols)
        g += Gv @ W[V.rows, V.cols]
    off = np.ones(W.size, dtype=bool)
    off[V.flat] = False
    return np.concatenate([g, Z[V.rows, V.cols], W.T.ravel()[off]])


def _nnls_multiplier_check(problem: ProblemInstance, x: np.ndarray, Z: np.ndarray,
                           cols, kind: str, tol: float) -> StationarityReport:
    """Shared body of the two multiplier-based checks: multipliers on the
    zeros of Z in the sorted columns ``cols``."""
    V = ActiveSet._on_columns(Z[:, cols] == 0.0, cols, Z.shape)
    g = problem.grad_f(x)
    if len(V) == 0:
        res = float(np.linalg.norm(g))
        return StationarityReport(kind=kind, satisfied=res <= tol, residual=res,
                                  active=V, witness_W=np.zeros((problem.M, problem.N)))
    # imported here: scipy.optimize would add about a quarter second to
    # every ``import stepopt``, and only these two checks need it
    from scipy.optimize import nnls

    coef, res = nnls(problem.grad_G_cols(x, V.rows, V.cols), -g)
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
    part = column_partition(Z)
    k = part.positive.size
    if k > s:
        return StationarityReport(kind="kkt", satisfied=False, residual=float("inf"),
                                  active=ActiveSet([], (problem.M, problem.N)),
                                  reason="infeasible")
    if k < s:
        res = float(np.linalg.norm(problem.grad_f(x)))
        return StationarityReport(kind="kkt", satisfied=res <= tol, residual=res,
                                  active=ActiveSet([], (problem.M, problem.N)),
                                  witness_W=np.zeros((problem.M, problem.N)))
    return _nnls_multiplier_check(problem, x, Z, part.zero, "kkt", tol)


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
    return _nnls_multiplier_check(problem, x, Z, enforced, "bkkt", tol)


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
    otherwise.  ``tau`` must be positive and finite.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if ztol is None:
        ztol = tol
    _check_nonnegative("ztol", ztol)
    Z = _as_matrix(problem.G(point.x) if Z is None else Z)
    # Z and lam are each checked and partitioned once: Z here, lam inside
    # is_candidate_set
    zero = np.flatnonzero(np.abs(Z.max(axis=0)) <= ztol)
    lam = Z + tau * point.W
    clamp_ok = is_candidate_set(lam, s, zero, ztol=ztol)

    # the active set of lam on the zero columns against the zeros of Z there
    on_zero = np.abs(Z[:, zero]) <= ztol
    V_star = ActiveSet._on_columns(on_zero, zero, Z.shape)
    sets_match = bool(((lam[:, zero] >= -ztol) == on_zero).all())

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
                       ztol: float = 0.0) -> float:
    """Largest step size keeping a multiplier-stationary point projection-stationary.

    Solves the gradient system on the active positions, which must have
    full column rank (so no more positions than unknowns), takes the
    largest multiplier column norm over the zero-max columns, and divides
    the s-th largest positive-part norm of G(x) by it.  Returns inf when
    the point is strictly inside the budget or the multipliers vanish on
    the zero-max columns.  ``ztol`` classifies near-zero constraint values
    as active, for numerically converged input.
    """
    x = np.asarray(x, dtype=float)
    Z = problem.G(x)
    part = column_partition(Z, ztol=ztol)
    k = part.positive.size
    if k > s:
        raise ValueError("point violates the step-norm budget")
    if k < s:
        return float("inf")
    V = ActiveSet._on_columns(np.abs(Z[:, part.zero]) <= ztol, part.zero, Z.shape)
    if len(V) == 0:
        return float("inf")
    coef, _, _, sv = np.linalg.lstsq(problem.grad_G_cols(x, V.rows, V.cols),
                                     -problem.grad_f(x), rcond=None)
    # min(K, |V|) singular values: fewer than |V| leave the multipliers
    # undetermined
    if sv.size < len(V) or sv[-1] <= _RANK_TOL * sv[0]:
        raise ValueError("active constraint gradients are rank deficient")
    W = np.zeros((problem.M, problem.N))
    W[V.rows, V.cols] = coef
    r_star = float(np.linalg.norm(W[:, part.zero], axis=0).max()) if part.zero.size else 0.0
    if r_star == 0.0:
        return float("inf")
    z_s = float(np.sort(part.pos_norms)[::-1][s - 1])
    return z_s / r_star
