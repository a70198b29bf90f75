"""Problem instances: objective and sampled constraint evaluators.

An instance bundles callables for f, its derivatives, the M x N constraint
value matrix G(x), and vectorized constraint derivatives: the gradient
columns of a set of (m, n) entries and their weighted Hessian sum, which is
all the solver's reduced Newton system and the multiplier checks read.
Batch evaluators of f and G over many points serve the grid search.  Two
constructors are provided: the sampled norm-design benchmark (squared
Gaussian data by default) and a fixed two-variable instance whose
binary-style optimality conditions hold at a point that is not a local
minimizer.  The norm-design instance also models G along a search ray, so
the solver's line search can count violations without evaluating G.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProblemInstance",
    "NormOptInstance",
    "make_norm_opt",
    "make_counterexample",
    "norm_opt_draw",
    "load_samples",
    "save_samples",
]

# Unit roundoff and smallest normal double, for the rounding bound of the
# norm-design violation model.
_UNIT = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny
# The model gives up when |x|^2 + |d|^2, |G(x)| + b or the model's
# coefficients pass _SAFE_VAL: below it no intermediate of G(x + a*d),
# a <= 1, can overflow, which the rounding bound assumes.
_SAFE_VAL = 1e300


@dataclass(frozen=True, kw_only=True)
class ProblemInstance:
    """Smooth objective with an M x N matrix of sampled constraint values.

    Attributes
    ----------
    K, M, N : int
        Decision dimension, constraints per sample, sample count.
    f, grad_f, hess_f : callable
        Objective value (float), gradient (K,), Hessian (K, K) at x.
    G : callable
        Constraint value matrix (M, N) at x.
    grad_G_cols : callable
        ``grad_G_cols(x, rows, cols)``: the gradients of the entries
        (rows[j], cols[j]) of G as the columns of a (K, L) matrix, for
        integer index arrays of length L.
    weighted_hess_G : callable
        ``weighted_hess_G(x, rows, cols, w)``: sum of w[j] times the
        Hessian of entry (rows[j], cols[j]), a (K, K) matrix; zeros when
        L = 0.
    f_batch, G_batch : callable
        f and G at the rows of a (P, K) array: shapes (P,) and (P, M, N).
    violations_along : callable, optional
        ``violations_along(x, d, Z)``, with ``Z = G(x)``, models G along the
        ray x + a*d.  It returns None when it cannot, or a function mapping
        a 1-d array of step sizes a in [0, 1] to integer arrays (lo, hi)
        with ``lo <= step_norm(G(x + a*d)) <= hi`` for each a.  The bounds
        are exact statements about G as evaluated in floating point at the
        trial point ``x + a * d``, not about its exact value, so a line
        search that trusts them where both sit on one side of its cap
        decides exactly as if it had called G.  As in ``step_norm``, an
        entry exactly zero does not violate.  The hook must describe this
        instance's own G.
    """

    K: int
    M: int
    N: int
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_f: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    grad_G_cols: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    weighted_hess_G: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    f_batch: Callable[[np.ndarray], np.ndarray]
    G_batch: Callable[[np.ndarray], np.ndarray]
    violations_along: Optional[Callable] = None

    def __post_init__(self):
        if self.K < 1 or self.M < 1 or self.N < 1:
            raise ValueError(f"dimensions must be positive, got K={self.K} M={self.M} N={self.N}")


@dataclass(frozen=True, kw_only=True)
class NormOptInstance(ProblemInstance):
    """Sampled norm-design benchmark instance.

    Minimizes lambda2*||x||^2 + sum_k(lambda1*max(-x_k, 0) - x_k) subject to
    at most s of the N sampled constraints sum_k xi_sq[n, m, k]*x_k^2 <= b
    being violated.  ``xi_sq`` holds the squared sample draws with shape
    (N, M, K); ``xi`` keeps the raw draws so files round-trip exactly.
    ``seed`` is None for instances loaded from a file.
    """

    xi: np.ndarray
    xi_sq: np.ndarray
    b: float
    lambda1: float
    lambda2: float
    seed: Optional[int]


def _build_norm_opt(xi: np.ndarray, b: float, lambda1: float, lambda2: float,
                    seed: Optional[int]) -> NormOptInstance:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 3:
        raise ValueError("sample array must have shape (N, M, K)")
    N, M, K = xi.shape
    if not np.all(np.isfinite(xi)):
        raise ValueError("sample array has non-finite entries")
    if not b > 0:
        raise ValueError(f"threshold b must be positive, got {b}")
    xi_sq = xi ** 2

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(lambda2 * x @ x + lambda1 * np.maximum(-x, 0.0).sum() - x.sum())

    def grad_f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lambda2 * x - 1.0 - lambda1 * (x < 0.0)

    def hess_f(x):
        return 2.0 * lambda2 * np.eye(K)

    def G(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("nmk,k->mn", xi_sq, x * x) - b

    def grad_G_cols(x, rows, cols):
        # columns of squared draws at the requested (m, n) pairs, times 2x
        return (2.0 * xi_sq[cols, rows, :] * np.asarray(x, dtype=float)).T

    def weighted_hess_G(x, rows, cols, weights):
        if len(weights) == 0:
            return np.zeros((K, K))
        return np.diag(2.0 * (np.asarray(weights, dtype=float) @ xi_sq[cols, rows, :]))

    def f_batch(X):
        X = np.asarray(X, dtype=float)
        return lambda2 * (X * X).sum(axis=1) + lambda1 * np.maximum(-X, 0.0).sum(axis=1) - X.sum(axis=1)

    def G_batch(X):
        X = np.asarray(X, dtype=float)
        return np.einsum("pk,nmk->pmn", X * X, xi_sq) - b

    # the samples as an (N*M, K) matrix whose row n*M + m is the (m, n)
    # constraint: a view of xi_sq, so the model reads it in place
    xi_rows = xi_sq.reshape(N * M, K)

    def violations_along(x, d, Z):
        # G(x + a*d) = Z + a*c1 + a^2*c2 entrywise, with c1 = 2*sum_k
        # xi_sq*x*d and c2 = sum_k xi_sq*d^2.  In floating point every entry
        # of G at the trial point differs from the model, evaluated below as
        # a sum of three products, by at most
        #     (4K + 13) * u * ((r0 + a*r2)^2 + |Z|),
        # u the unit roundoff, r0^2 ~ |Z| + b and r2^2 ~ c2 the weighted
        # squared norms of x and d: the trial point, the squares, the
        # products and the K-term sums each round by a relative u per
        # operation, and Cauchy-Schwarz bounds the cross term
        # sum_k xi_sq*|x|*|d| by r0*r2.  The K-term bound holds for any
        # summation order, so it covers the einsum in G, the BLAS products
        # below whatever their blocking, and fused multiply-adds, which
        # round once where a product and a sum round twice.  Since
        # (r0 + a*r2)^2 <= 2*r0^2 + 2*a^2*r2^2, the band e0 + a^2*e2 below
        # covers that with room left for the rounding of the band itself;
        # the absolute term covers gradual underflow.  Rounding keeps the
        # sign of a sum, so a column whose largest model entry clears the
        # band on either side has that sign in G too.
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if not x @ x + d @ d <= _SAFE_VAL:
            return None
        coef = np.empty((3, M, N))
        coef[0] = Z
        # c1 and c2 from one BLAS product that reads the samples in place;
        # its row n*M + m lands at (m, n), so that the column maxima below
        # run over whole rows of N entries
        cd = xi_rows @ np.array([2.0 * x * d, d * d]).T
        coef[1:] = cd.reshape(N, M, 2).transpose(2, 1, 0)
        # column maxima of |Z|, |c1| and c2
        mag = np.abs(coef).max(axis=1)
        if not mag.max() + b <= _SAFE_VAL:
            return None
        c = (4 * K + 32) * _UNIT
        # the band e0 + a^2*e2 of each column, as the rows of one matrix
        band_coef = np.empty((2, N))
        band_coef[0] = (3.0 * c) * mag[0] + c * (2.0 * b + _TINY)
        band_coef[1] = (2.0 * c) * mag[2]
        coef = coef.reshape(3, M * N)

        def counts(alphas):
            powers = np.empty((alphas.size, 3))
            powers[:, 0] = 1.0
            powers[:, 1] = alphas
            powers[:, 2] = alphas * alphas
            top = (powers @ coef).reshape(-1, M, N).max(axis=1)
            band = powers[:, ::2] @ band_coef
            # comparisons are exact: top > band iff the rounded top - band > 0
            lo = (top > band).sum(axis=1)
            np.negative(band, out=band)
            return lo, N - (top < band).sum(axis=1)

        return counts

    return NormOptInstance(
        K=K, M=M, N=N,
        f=f, grad_f=grad_f, hess_f=hess_f,
        G=G, grad_G_cols=grad_G_cols, weighted_hess_G=weighted_hess_G,
        f_batch=f_batch, G_batch=G_batch, violations_along=violations_along,
        xi=xi, xi_sq=xi_sq, b=float(b),
        lambda1=float(lambda1), lambda2=float(lambda2), seed=seed,
    )


def make_norm_opt(K: int, M: int, N: int, *, b: float = 100.0,
                  lambda1: float = 0.5, lambda2: float = 0.5,
                  seed: int = 0) -> NormOptInstance:
    """Draw a seeded norm-design instance with i.i.d. standard normal samples.

    The raw draws are squared internally; identical (dims, seed) reproduce
    the instance bit for bit.
    """
    if K < 1 or M < 1 or N < 1:
        raise ValueError(f"dimensions must be positive, got K={K} M={M} N={N}")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((N, M, K))
    return _build_norm_opt(xi, b, lambda1, lambda2, seed)


def norm_opt_draw(K: int, M: int, b: float = 100.0):
    """Sampler for fresh norm-design constraint values at a fixed point.

    Returns a callable draw(x, count, rng) -> (M, count) matrix whose
    (m, i) entry is sum_k xi_mk^2 x_k^2 - b for an independent draw i.
    """

    def draw(x, count, rng):
        x_sq = np.asarray(x, dtype=float) ** 2
        xi = rng.standard_normal((count, M, K))
        return np.einsum("imk,k->mi", xi * xi, x_sq) - b

    return draw


def make_counterexample() -> ProblemInstance:
    """Two-variable instance separating the two stationarity notions.

    f(x) = (x0 - 2)^2 with constraint row (x0^2 - x1, x1 - 1) and budget
    s = 1.  At x = (1, 1) the binary-style conditions hold with multipliers
    (1, 1) while the projection-based conditions fail; the global minimum
    f = 0 sits at x0 = 2, x1 >= 4 (second constraint violated, first kept).
    """

    def f(x):
        return float((x[0] - 2.0) ** 2)

    def grad_f(x):
        return np.array([2.0 * (x[0] - 2.0), 0.0])

    def hess_f(x):
        return np.array([[2.0, 0.0], [0.0, 0.0]])

    def G(x):
        return np.array([[x[0] ** 2 - x[1], x[1] - 1.0]])

    def grad_G_cols(x, rows, cols):
        # column n = 0: (2*x0, -1); column n = 1: (0, 1)
        first = np.asarray(cols) == 0
        return np.array([np.where(first, 2.0 * x[0], 0.0), np.where(first, -1.0, 1.0)])

    def weighted_hess_G(x, rows, cols, w):
        # only the entry in column 0 curves, with Hessian diag(2, 0)
        out = np.zeros((2, 2))
        out[0, 0] += 2.0 * np.asarray(w, dtype=float)[np.asarray(cols) == 0].sum()
        return out

    def f_batch(X):
        X = np.asarray(X, dtype=float)
        return (X[:, 0] - 2.0) ** 2

    def G_batch(X):
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], 1, 2))
        out[:, 0, 0] = X[:, 0] ** 2 - X[:, 1]
        out[:, 0, 1] = X[:, 1] - 1.0
        return out

    return ProblemInstance(
        K=2, M=1, N=2,
        f=f, grad_f=grad_f, hess_f=hess_f,
        G=G, grad_G_cols=grad_G_cols, weighted_hess_G=weighted_hess_G,
        f_batch=f_batch, G_batch=G_batch,
    )


def save_samples(instance_or_xi, path) -> None:
    """Write raw sample draws as CSV blocks, one sample per blank-line block.

    Each block has M lines of K comma-separated values; a '#' header records
    the dimensions.  Values are written with repr so a reload is bit-exact.
    """
    if isinstance(instance_or_xi, NormOptInstance):
        xi = instance_or_xi.xi
    else:
        xi = np.asarray(instance_or_xi, dtype=float)
    if xi.ndim != 3:
        raise ValueError("sample array must have shape (N, M, K)")
    N, M, K = xi.shape
    lines = [f"# norm-design samples: N={N} M={M} K={K}"]
    for n in range(N):
        if n:
            lines.append("")
        for m in range(M):
            lines.append(",".join(repr(float(v)) for v in xi[n, m]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_samples(path, *, b: float = 100.0, lambda1: float = 0.5,
                 lambda2: float = 0.5) -> NormOptInstance:
    """Build a norm-design instance from a sample CSV written by save_samples.

    The file holds raw (unsquared) draws: blocks of M lines with K
    comma-separated values each, blank lines between samples, '#' lines
    ignored.  Dimensions are inferred; blocks must be consistent.
    """
    with open(path) as fh:
        raw = fh.read()
    blocks: list[list[list[float]]] = []
    current: list[list[float]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            row = [float(v) for v in stripped.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        current.append(row)
    if current:
        blocks.append(current)
    if not blocks:
        raise ValueError(f"{path}: no sample blocks found")
    M = len(blocks[0])
    K = len(blocks[0][0])
    for i, block in enumerate(blocks):
        if len(block) != M or any(len(row) != K for row in block):
            raise ValueError(f"{path}: sample block {i} is ragged (expected {M} lines of {K} values)")
    xi = np.array(blocks, dtype=float)
    return _build_norm_opt(xi, b, lambda1, lambda2, seed=None)
