"""Problem instances: objective and sampled constraint evaluators.

An instance bundles callables for f and its gradient, the M x N constraint
value matrix G(x), the gradient columns of a set of (m, n) entries of G,
and the Hessian of the Lagrangian over that set, which is all the solver's
reduced Newton system and the multiplier checks read.
Batch evaluators of f and G over many points serve the grid search.  Two
constructors are provided: the sampled norm-design benchmark (squared
Gaussian data by default) and a fixed two-variable instance whose
binary-style optimality conditions hold at a point that is not a local
minimizer.  The norm-design instance also models G along a search ray, so
the solver's line search can count violations without evaluating G.  On
samples larger than one row block a per-column envelope, which reads no
samples, clears most columns at most steps, and the exact model reads only
the columns it cannot clear, adding more, smallest threshold first, only
while the search's cap leaves a step open.  The model bounds every trial
step in one pass, counting each set of columns it adds at all steps at
once.  On the same samples the instance bounds G after a step
(``G_step``): a per-column bound of the same kind proves most columns
below a ceiling the caller sets per column at the new point, and G is
evaluated only on the rest, with the same einsum over their gathered
rows, so those columns are G bit for bit.  G and G_step go through one
function, which gives G as -b without reading any sample at a point whose
squares are all zero, such as the solver's default start.  Of G(x) the
violation model reads only the column maxima, in its envelope, where
bounds serve as they are; the exact model takes G(x) on the columns it
models from the one BLAS product that also gives its coefficients, read
from each block of samples once.
"""
from __future__ import annotations

import contextlib
import math
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
# In binary round-to-nearest arithmetic sqrt(x*x) == |x| while x*x is a
# normal double (Boldo, 2015): for |x| in [_EXACT_LO, _EXACT_HI), which
# keeps a margin below overflow.
_EXACT_LO = 2.0 ** -511
_EXACT_HI = 2.0 ** 511
# Smallest positive subnormal double, the absolute rounding unit of the
# envelope of the violation model.
_SUBNORMAL = 2.0 ** -1074
# The envelope (_clear_steps) runs only on instances whose weights are at
# most _ENV_HI and b in [_ENV_LO^2, _SAFE_VAL], and for directions with
# ||d||_inf at least _ENV_LO.  The weights are floored at _ENV_LO, which
# only lowers its thresholds.
_ENV_LO = 2.0 ** -256
_ENV_HI = 2.0 ** 400
# the empty patch (positions, magnitudes), shared by the instances that need none
_NO_PATCH = (np.empty(0, dtype=np.intp), np.empty(0))
# the context of a model whose products cannot overflow: nothing to silence
_QUIET = contextlib.nullcontext()
# the norm-design defaults of make_norm_opt, load_samples and norm_opt_draw
_DEFAULT_B = 100.0
_DEFAULT_LAMBDA1 = 0.5
_DEFAULT_LAMBDA2 = 0.5
# norm_opt_draw fills a buffer of about this many normals at a time
_DRAW_CHUNK_ENTRIES = 1 << 17
# The violation model multiplies the samples by its vectors x*x, 2*x*d and
# d*d in blocks of about this many bytes, which stay in cache while BLAS
# reads them.  Over the 79 line searches of one K=50, M=20, N=2000 pool, a
# model build with the last two vectors alone took a median 5.3 ms with
# one product over all rows, 4.1-4.8 ms with blocks of 32-128 KiB, 3.7 ms
# at 256 KiB and 3.8-3.9 ms at 512 KiB-2 MiB (one BLAS thread, 2-vCPU
# Xeon, 2 MiB of L2 per core).
_MODEL_BLOCK_BYTES = 1 << 18
# The model evaluates about this many entries of G at a time, so that its
# temporaries stay a few times this size: every trial step at once on small
# problems, a few at a time on large ones.  It caps only the size of those
# temporaries; the bounds of every step come out the same at any value.
# 2^16 replayed the 80 line searches of a K=50, M=20, N=2000 pool faster in
# six of seven paired runs, but at K=50, M=20, N=200 its temporaries peak at
# 0.68 MB, over a quarter of the 1.6 MB of samples, against 0.31 MB at 2^14.
_MODEL_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True, kw_only=True)
class ProblemInstance:
    """Smooth objective with an M x N matrix of sampled constraint values.

    Attributes
    ----------
    K, M, N : int
        Decision dimension, constraints per sample, sample count.
    f, grad_f : callable
        Objective value (float) and gradient (K,) at x.
    G : callable
        Constraint value matrix (M, N) at x.
    grad_G_cols : callable
        ``grad_G_cols(x, rows, cols)``: the gradients of the entries
        (rows[j], cols[j]) of G as the columns of a (K, L) matrix, for
        integer index arrays of length L.
    hess_lagrangian : callable
        ``hess_lagrangian(x, rows, cols, w)``: the Hessian of f plus the
        sum of w[j] times the Hessian of entry (rows[j], cols[j]), a
        (K, K) matrix; the Hessian of f alone when L = 0.
    f_batch, G_batch : callable
        f and G at the rows of a (P, K) array: shapes (P,) and (P, M, N).
    violations_along : callable, optional
        ``violations_along(x, d, Z, alphas, cap)``, with ``Z = G(x)``, or
        with Z as this instance's own ``G_step`` gave it at x, models G
        along the ray x + a*d at the non-increasing step sizes ``alphas``
        in [0, 1], and raises ValueError if a step is larger than the one
        before it.  It returns None when it cannot, or integer arrays (lo,
        hi), one entry per step, with ``lo <= step_norm(G(x + a*d)) <= hi``
        at each step a.  The bounds are exact statements about G as
        evaluated in floating point at the trial point ``x + a * d``, not
        about its exact value, so a line search that trusts them where both
        sit on one side of ``cap`` decides exactly as if it had called G.
        As in ``step_norm``, an entry exactly zero does not violate.
        ``cap`` tells the hook how tight its bounds need to be: a search
        reads them in order up to the first step with ``hi <= cap``, and
        the hook may leave any later step at (0, N).  The hook must
        describe this instance's own G, and reads ``alphas`` only when it
        is called.  A Z from ``G_step`` is read only as upper bounds on the
        columns of G(x).  The norm-design instance reads Z only in its
        envelope, as column maxima, and evaluates G(x) itself on the
        columns it models.
    G_step : callable, optional
        ``G_step(x, d, alpha, Z, ceiling)``, with Z = G(x), or Z from an
        earlier ``G_step`` call, gives G(y) at the trial point
        ``y = x + alpha * d``, rounded as that expression rounds.
        ``ceiling`` is an (N,) array of numbers at most zero.  A column may
        hold one number, an upper bound on every entry of G(y) there, only
        where that bound is below ``ceiling[n]``; every other column holds
        G(y) bit for bit.  ``solve`` passes -inf where its multipliers are
        nonzero and -tol elsewhere, so that a bounded column is below the
        zero tolerance of G + tau*W and of its final check either way, and
        hands G(y) to ``violations_along`` as it is.
    """

    K: int
    M: int
    N: int
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_lagrangian: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    grad_G_cols: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    f_batch: Callable[[np.ndarray], np.ndarray]
    G_batch: Callable[[np.ndarray], np.ndarray]
    violations_along: Optional[Callable] = None
    G_step: Optional[Callable] = None

    def __post_init__(self):
        if self.K < 1 or self.M < 1 or self.N < 1:
            raise ValueError(f"dimensions must be positive, got K={self.K} M={self.M} N={self.N}")


@dataclass(frozen=True, kw_only=True)
class NormOptInstance(ProblemInstance):
    """Sampled norm-design benchmark instance.

    Minimizes lambda2*||x||^2 + sum_k(lambda1*max(-x_k, 0) - x_k) subject to
    at most s of the N sampled constraints sum_k xi_sq[n, m, k]*x_k^2 <= b
    being violated.  ``xi_sq`` holds the squared sample draws with shape
    (N, M, K), the only copy of the samples that the evaluators read.  The
    raw draws are not kept: ``xi_signs`` holds their sign bits, packed by
    ``np.packbits`` in C order (N*M*K/8 bytes), and ``xi_patch_at`` and
    ``xi_patch_mag`` the flat positions and magnitudes of the few draws
    whose square does not give back their magnitude (none for Gaussian
    draws).  The ``xi`` property rebuilds the raw draws from these, bit for
    bit, on every access, so files still round-trip exactly.  ``seed`` is
    None for instances loaded from a file.
    """

    xi_sq: np.ndarray
    xi_signs: np.ndarray
    xi_patch_at: np.ndarray
    xi_patch_mag: np.ndarray
    b: float
    lambda1: float
    lambda2: float
    seed: Optional[int]

    @property
    def xi(self) -> np.ndarray:
        """The raw (N, M, K) draws, rebuilt bit for bit in a new array."""
        xi = np.sqrt(self.xi_sq)
        flat = xi.reshape(-1)
        flat[self.xi_patch_at] = self.xi_patch_mag
        neg = np.unpackbits(self.xi_signs, count=flat.size).view(bool)
        np.negative(flat, out=flat, where=neg)
        return xi


def _clear_steps(z: np.ndarray, dmax: float, W: np.ndarray, b: float,
                 slack: float) -> np.ndarray:
    """Envelope thresholds of the violation model, one per column.

    Every entry of column n of G(x + a*d), as G evaluates it in floating
    point at the trial point ``x + a * d``, is below zero for every step
    ``0 <= a < theta[n]``.  ``z`` holds the column maxima of Z = G(x),
    ``dmax = ||d||_inf``, ``W`` the column weights of the instance and
    ``slack`` its absolute slack.  The caller keeps dmax and sqrt(b) at
    least _ENV_LO and z + b at most _SAFE_VAL; the weights lie in
    [_ENV_LO, _ENV_HI].  Then no quotient below overflows and every
    threshold it keeps is a normal number.
    """
    # Fix an entry (m, n) with weights s_k = xi_sq[n, m, k] >= 0, so that
    # ||v|| = sqrt(sum_k s_k * v_k^2) is a seminorm and G(y) = ||y||^2 - b
    # in exact arithmetic.  With u the unit roundoff, e = _SUBNORMAL and
    # w = sqrt(sum_k s_k):
    #   - the trial point rounds each coordinate twice, a*d_k and then
    #     x_k + a*d_k, so |y_k| <= (1 + u)^2 * (|x_k| + a*|d_k|) + e and, by
    #     Minkowski, ||y|| <= (1 + u)^2 * (||x|| + a*||d||) + e*w, where
    #     ||d|| <= dmax * w;
    #   - G squares y_k, multiplies by s_k and adds K nonnegative terms in
    #     any order, fused or not: each term rounds at most K + 1 times by a
    #     relative u, and an underflowing square or product by an absolute
    #     e/2 (sums of nonnegative terms never underflow), so the computed
    #     sum is at most (1 + u)^(K + 1) * ||y||^2 + e * (K * s_max + K);
    #   - rounding keeps the sign of the final ``- b``: the computed entry
    #     is below zero exactly when that sum is below b;
    #   - the same bounds read backwards at x, where Z rounds once more,
    #     give ||x||^2 <= (Z + b)*(1 + g) + g*|Z| + h, where g = (8K + 64)*u
    #     covers every relative factor here and h = 8K * e * (s_max + 1 + b)
    #     every absolute one;
    #   - the computed w, a K-term sum of nonnegative terms and a square
    #     root in any order, is within a factor (1 + u)^(K + 1) of w.
    # With Q that bound on ||x||^2 and B = b*(1 - g) - h, the entry is below
    # zero whenever sqrt(Q) + a * dmax * w * (1 + g) <= sqrt(B), that is for
    #     a < (B - Q) / (dmax * w * (1 + g) * (sqrt(B) + sqrt(Q))),
    # and B - Q = -Z - 2*(g*b + h) when Z <= 0 (then |Z| <= b, as Z >= -b);
    # for Z > 0 the bound is negative.  The bound falls as Z or w grows, so
    # the column's largest Z and largest w give one threshold for all its
    # entries.  Below, p = -Z - slack with slack = 3*(g*b + h), so p rounded
    # is still at most -Z - 2*(g*b + h); the denominator uses sqrt(b) >=
    # sqrt(B) and Z + b + slack >= Q; and W carries the factor (1 + g),
    # which also covers the rounding of w, of the denominator and of the
    # two quotients.  A threshold below _ENV_LO, which is where a rounding
    # stops being relative, becomes 0, and so does a negative one.
    r = np.add(z, b + slack)
    np.sqrt(r, out=r)
    r += math.sqrt(b)
    r *= W
    theta = np.subtract(-slack, z)
    theta /= r
    theta /= dmax
    theta[theta < _ENV_LO] = 0.0
    return theta


def _step_bounds(z: np.ndarray, step: float, W: np.ndarray, b: float,
                 slack: float) -> np.ndarray:
    """Upper bounds on the columns of G(x + a*d) that come out below zero.

    ``z`` holds the column maxima of G(x), or upper bounds on them no
    smaller than -b, ``step = a * ||d||_inf`` and W and ``slack`` are those
    of _clear_steps.  Every entry of column n of G(x + a*d), as G evaluates
    it in floating point at the trial point ``x + a * d``, is at most
    ``bound[n]`` whenever ``bound[n] < 0``; a nonnegative bound says
    nothing.  The caller keeps step at least _ENV_LO and z + b at most
    _SAFE_VAL, and ignores overflow, which only gives inf.
    """
    # In the notation of _clear_steps, take a column with z <= 0 and write
    # A = sqrt(Q) + a*dmax*w, with Q = z + b + g*b + h >= ||x||^2.  The
    # computed sum of G at the trial point is at most T = (1 + u)^(K + 1) *
    # ((1 + u)^2 * A + e*w)^2 + e*(K*s_max + K), and rounding its ``- b``
    # gives an entry of at most T - b + u*(T + b).  Below:
    #   - z + b + slack, with slack = 3*(g*b + h), exceeds Q by 2*(g*b + h),
    #     so by a factor 1 + 1.8g after its two roundings; its square root
    #     carries 1 + 0.9g, as W carries 1 + g, so the rounded sum of the
    #     two terms is at least (1 + 0.85g) * (1 - 3u) * A;
    #   - its square, rounded, is at least (1 + 1.7g - 8u) * A^2, more than
    #     the (1 + (K + 9)u) * A^2 of T*(1 + u) once 2*A*e*w <= u*A^2 +
    #     e^2*w^2/u splits the cross term, as g = (8K + 64)*u;
    #   - subtracting b - slack instead of b leaves slack - 2u*b, which
    #     covers the u*b of the final rounding, the u*b of b - slack itself
    #     and the absolute terms of T, which are below h/4.
    # Every operation rounds relative to its result: step >= _ENV_LO keeps
    # step*W normal, z + b + slack >= slack is normal, and a subtraction
    # whose result is subnormal is exact.  The bound is at least -b, so it
    # can stand for z in the next call, and a column with z > 0 has a
    # square above b - slack, so a bound of at least zero.
    r = np.add(z, b + slack)
    np.sqrt(r, out=r)
    r += step * W
    np.square(r, out=r)
    r -= b - slack
    return r


def _column_max(Z: np.ndarray) -> np.ndarray:
    """The column maxima of an (M, N) array, C-ordered first.

    Over axis 0 numpy reduces a Fortran-ordered array, the layout of
    ``_einsum_G``, in N short loops of M entries: at M=20, N=2000 the copy
    and a C-ordered reduction took a third as long.  A C-ordered array is
    not copied.
    """
    return np.ascontiguousarray(Z).max(axis=0)


def _einsum_G(rows: np.ndarray, x: np.ndarray, b: float) -> np.ndarray:
    """G(x) of the norm-design instance on the columns whose samples are ``rows``.

    One einsum over the (L, M, K) sample rows, which gives each column of G
    bit for bit whether ``rows`` holds every sample or gathered ones, so
    that ``G_step`` can mix gathered columns into a G it treats as exact.
    The violation model does not call it: its own G(x) is a product summed
    in another order, within the rounding its band allows for.  At a
    point whose squares are all zero, the origin, -0.0 entries and
    coordinates whose squares underflow alike, every product is +0 and G
    is -b: that is returned without reading ``rows``, in the einsum's own
    Fortran-ordered (M, L) layout.
    """
    x2 = x * x
    # count_nonzero, not any(): at K=10 it costs a tenth of the einsum
    if not np.count_nonzero(x2):
        return np.full(rows.shape[:2], -b).T
    return np.einsum("nmk,k->mn", rows, x2) - b


def _column_model(xi_sq: np.ndarray, cols: Optional[np.ndarray], xd: np.ndarray, b: float):
    """The violation model over the columns ``cols`` of G, None meaning all.

    ``xd`` holds the columns x*x, 2*x*d and d*d.  One product of each row
    block of samples with ``xd`` gives G(x) + b, c1 and c2 together, so the
    model reads each sample row once and evaluates G(x) itself.  Returns
    (rows, bands): coefficient rows (3, M*L), which give the entries of the
    model at step a in column order as (1, a, a^2) @ rows, and band rows
    (2, L), which give each column's band as (1, a^2) @ bands; or None when
    a coefficient passes _SAFE_VAL.
    """
    # G(x + a*d) = Z + a*c1 + a^2*c2 entrywise, with Z = G(x), c1 = 2*sum_k
    # xi_sq*x*d and c2 = sum_k xi_sq*d^2.  In floating point every entry
    # of G at the trial point differs from the model, evaluated as a sum of
    # three products, by at most
    #     (4K + 13) * u * ((r0 + a*r2)^2 + |Z|),
    # u the unit roundoff, r0^2 ~ |Z| + b and r2^2 ~ c2 the weighted
    # squared norms of x and d: the trial point, the squares, the products
    # and the K-term sums each round by a relative u per operation, and
    # Cauchy-Schwarz bounds the cross term sum_k xi_sq*|x|*|d| by r0*r2.
    # The K-term bound holds for any summation order, so it covers the
    # einsum in G, the BLAS products below whatever their blocking, and
    # fused multiply-adds, which round once where a product and a sum round
    # twice.  The model's own Z is such a sum: the squares x*x, as G rounds
    # them, weighted and summed by the product below, then ``- b``, so it
    # needs no more room than G's own values would.  Since (r0 + a*r2)^2
    # <= 2*r0^2 + 2*a^2*r2^2, the band e0 + a^2*e2 below covers that with
    # room left for the rounding of the band itself; the absolute term
    # covers gradual underflow.  Rounding keeps the sign of a sum, so a
    # column whose largest model entry clears the band on either side has
    # that sign in G too.
    N, M, K = xi_sq.shape
    L = N if cols is None else len(cols)
    prod = np.empty((L * M, 3))
    # One BLAS product per block of whole columns, which stays in cache
    # while it is read: the samples in place when the model takes every
    # column, else gathered into one buffer.  Row n*M + m lands at (m, n),
    # so that the column maxima below run over whole rows of L entries.  xd
    # is in C order: with the Fortran-ordered transpose the blocks took as
    # long as one product over all rows.  A product that overflows gives
    # inf or nan, which the check of the column maxima below turns into
    # None.
    block = max(1, _MODEL_BLOCK_BYTES // (xi_sq.itemsize * M * K))
    buf = None if cols is None else np.empty((min(block, L), M, K))
    for first in range(0, L, block):
        part = xi_sq[first:first + block] if cols is None else buf[:min(block, L - first)]
        if cols is not None:
            # Every index is valid, and with ``out`` numpy buffers the
            # default mode="raise", which made the gather three times slower.
            np.take(xi_sq, cols[first:first + block], axis=0, out=part, mode="clip")
        np.dot(part.reshape(-1, K), xd, out=prod[first * M:(first + len(part)) * M])
    coef = prod.reshape(L, M, 3).transpose(2, 1, 0).copy()
    coef[0] -= b
    # column maxima of |Z|, |c1| and c2
    mag = np.abs(coef).max(axis=1) if M > 1 else np.abs(coef[:, 0])
    if not mag.max() + b <= _SAFE_VAL:
        return None
    c = (4 * K + 32) * _UNIT
    # the band e0 + a^2*e2 of each column, as the rows of one matrix
    bands = np.empty((2, L))
    bands[0] = (3.0 * c) * mag[0] + c * (2.0 * b + _TINY)
    bands[1] = (2.0 * c) * mag[2]
    return coef.reshape(3, M * L), bands


def _build_norm_opt(xi: np.ndarray, b: float, lambda1: float, lambda2: float,
                    seed: Optional[int]) -> NormOptInstance:
    # xi is squared in place, so that building an instance never holds two
    # (N, M, K) arrays: the callers, make_norm_opt and load_samples, pass an
    # array of their own that nothing else reads
    if not 0 < b < math.inf:
        raise ValueError(f"threshold b must be positive and finite, got {b}")
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 3:
        raise ValueError("sample array must have shape (N, M, K)")
    N, M, K = xi.shape
    flat = xi.reshape(-1)
    signs = np.packbits(np.signbit(flat))
    mag = np.abs(flat, out=flat)
    lo, hi = mag.min(), float(mag.max())
    if not math.isfinite(hi):
        raise ValueError("sample array has non-finite entries")
    # the largest square is the one that would overflow, and G would read inf
    s_max = hi * hi
    if math.isinf(s_max):
        raise ValueError(f"sample draw of magnitude {hi!r} overflows when squared")
    # only draws outside [_EXACT_LO, _EXACT_HI) need a patch; one min and
    # one max rule them out for the usual samples
    if lo < _EXACT_LO or hi >= _EXACT_HI:
        patch_at = np.flatnonzero(((mag < _EXACT_LO) & (mag > 0.0)) | (mag >= _EXACT_HI))
        patch_mag = mag[patch_at]
    else:
        patch_at, patch_mag = _NO_PATCH
    xi_sq = np.square(mag, out=mag).reshape(N, M, K)

    def f(x):
        x = np.asarray(x, dtype=float)
        return float(lambda2 * x @ x + lambda1 * np.maximum(-x, 0.0).sum() - x.sum())

    def grad_f(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * lambda2 * x - 1.0 - lambda1 * (x < 0.0)

    def hess_lagrangian(x, rows, cols, weights):
        # diagonal: 2*lambda2 from f, plus 2*sum_j w[j]*xi_sq[n_j, m_j, :]
        diag = 2.0 * lambda2
        if len(weights):
            diag = diag + 2.0 * (np.asarray(weights, dtype=float) @ xi_sq[cols, rows, :])
        out = np.zeros((K, K))
        # written through a strided view of the flat matrix
        out.reshape(-1)[::K + 1] = diag
        return out

    def G(x):
        return _einsum_G(xi_sq, np.asarray(x, dtype=float), b)

    def grad_G_cols(x, rows, cols):
        # columns of squared draws at the requested (m, n) pairs, times 2x
        return (2.0 * xi_sq[cols, rows, :] * np.asarray(x, dtype=float)).T

    def f_batch(X):
        X = np.asarray(X, dtype=float)
        return lambda2 * (X * X).sum(axis=1) + lambda1 * np.maximum(-X, 0.0).sum(axis=1) - X.sum(axis=1)

    def G_batch(X):
        X = np.asarray(X, dtype=float)
        return np.einsum("pk,nmk->pmn", X * X, xi_sq) - b

    # The envelope of the violation model (see _clear_steps) runs on
    # samples larger than one row block, where the model's cost is the
    # bytes it reads; on smaller ones the model reads every column in place.
    # Its weights W[n] = max_m sqrt(sum_k xi_sq[n, m, k]) carry the relative
    # slack g and the floor _ENV_LO; ``slack`` is its absolute one.  G_step
    # exists exactly where W does, so only there may a Z hold bounds.
    W = None
    if xi_sq.nbytes > _MODEL_BLOCK_BYTES and _ENV_LO * _ENV_LO <= b <= _SAFE_VAL:
        g = (8 * K + 64) * _UNIT
        W = np.sqrt(np.einsum("nmk->nm", xi_sq).max(axis=1))
        np.multiply(W, 1.0 + g, out=W)
        np.maximum(W, _ENV_LO, out=W)
        h = 8.0 * K * (_SUBNORMAL * s_max + _SUBNORMAL * (1.0 + b))
        slack = 3.0 * (g * b + h)
        if W.max() > _ENV_HI:
            W = None

    def G_step(x, d, alpha, Z, ceiling):
        # G at the trial point, but the bound (see _step_bounds) on every
        # column where it is below the ceiling
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        y = x + alpha * d
        z = _column_max(Z)
        step = alpha * float(np.abs(d).max())
        if not (step >= _ENV_LO and z.max() + b <= _SAFE_VAL):
            return _einsum_G(xi_sq, y, b)
        with np.errstate(over="ignore"):
            bound = _step_bounds(z, step, W, b, slack)
        cols = np.flatnonzero(~(bound < ceiling))
        if cols.size == N:
            return _einsum_G(xi_sq, y, b)
        out = np.empty((M, N))
        out[:] = bound
        out[:, cols] = _einsum_G(np.take(xi_sq, cols, axis=0), y, b)
        return out

    def violations_along(x, d, Z, alphas, cap):
        # The steps are copied once, as rows (1, a, a^2) of step powers, so
        # a caller that changes its array later changes no bound.
        powers = np.empty((len(alphas), 3))
        powers[:, 0] = 1.0
        powers[:, 1] = alphas
        a = powers[:, 1]
        if not (a[1:] <= a[:-1]).all():
            raise ValueError("violations_along: the steps must be non-increasing")
        np.multiply(a, a, out=powers[:, 2])
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        # vdot, unlike matmul and dot, gives inf on overflow without a
        # warning, and the sum of two Python floats does too
        q = float(np.vdot(x, x)) + float(np.vdot(d, d))
        if not q <= _SAFE_VAL:
            return None
        # The model's products are at most s_max*q in magnitude, s_max the
        # largest sample, so below that no product overflows; above it one
        # may, and gives inf or nan, which the model turns into None.
        quiet = _QUIET if s_max * q <= _SAFE_VAL else np.errstate(over="ignore", invalid="ignore")
        P = len(a)
        if not P:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        # the columns x*x, 2*x*d and d*d, in C order
        xd = np.empty((K, 3))
        np.multiply(x, x, out=xd[:, 0])
        np.multiply(x, 2.0, out=xd[:, 1])
        xd[:, 1] *= d
        np.multiply(d, d, out=xd[:, 2])
        dmax = 0.0 if W is None else float(np.abs(d).max())
        # the column maxima of Z, all that the envelope reads of it
        z = _column_max(Z) if dmax >= _ENV_LO else None
        if z is None or not z.max() + b <= _SAFE_VAL:
            # without the envelope: every column, at every step
            with quiet:
                model = _column_model(xi_sq, None, xd, b)
            return None if model is None else count(*model, None, powers)
        # S, the columns the model covers, is the first ``done`` columns of
        # ``order``, by increasing envelope threshold; ``unsafe[j]`` columns
        # of that order are not cleared by the envelope at step j, and those
        # outside S count as possible violators there.
        theta = _clear_steps(z, dmax, W, b, slack)
        # a column cleared at the largest step is cleared at every step
        order = np.flatnonzero(theta <= a[0])
        order = order[np.argsort(theta[order])]
        unsafe = np.searchsorted(theta[order], a, side="right")
        lo = np.zeros(P, dtype=np.intp)
        modelled = np.zeros(P, dtype=np.intp)
        done = 0
        size = int(unsafe[-1])
        while True:
            if size > done:
                # S gains order[done:size]; every column at once is read in
                # place
                cols = None if size == N and not done else order[done:size]
                with quiet:
                    model = _column_model(xi_sq, cols, xd, b)
                if model is None:
                    return None
                part_lo, part_hi = count(*model, theta if cols is None else theta[cols], powers)
                lo[:len(part_lo)] += part_lo
                modelled[:len(part_hi)] += part_hi
                done = size
            outside = np.maximum(unsafe - done, 0)
            hi = modelled + outside
            # The search ends at the first step whose bounds accept it.
            # Before it, a step whose bounds straddle the cap while columns
            # outside S are uncleared grows S, smallest thresholds first.
            # The steps do not increase, so every step before the first such
            # one is rejected by lo alone.  At least cap + 1 - lo more
            # violators reject it, and S at least doubles, so that a loose
            # envelope costs a few rounds, not one per handful of columns.
            sure = np.flatnonzero(hi <= cap)
            stop = int(sure[0]) if sure.size else P
            open_ = np.flatnonzero((lo[:stop] <= cap) & (outside[:stop] > 0))
            if not open_.size:
                return lo, hi
            j = int(open_[0])
            size = min(int(unsafe[j]), done + max(math.floor(cap) + 1 - int(lo[j]), done))

    def count(rows, bands, clear, powers):
        # The model's bounds (lo, hi) over one set of columns at the steps
        # ``powers``.  A column counts in hi only at steps where the
        # envelope, thresholds ``clear``, does not clear it, and the bounds
        # end before the first step where it clears every column.
        if clear is not None:
            powers = powers[:int(np.count_nonzero(powers[:, 1] >= clear.min()))]
        L = bands.shape[1]
        per_chunk = max(1, _MODEL_CHUNK_ENTRIES // (M * L))
        lo = np.empty(len(powers), dtype=np.intp)
        hi = np.empty(len(powers), dtype=np.intp)
        for first in range(0, len(powers), per_chunk):
            p = powers[first:first + per_chunk]
            top = p @ rows
            if M > 1:
                top = top.reshape(len(p), M, L).max(axis=1)
            band = p[:, ::2] @ bands
            # comparisons are exact: top > band iff the rounded top - band > 0
            (top > band).sum(axis=1, out=lo[first:first + len(p)])
            np.negative(band, out=band)
            open_ = top >= band
            if clear is not None:
                open_ &= p[:, 1:2] >= clear
            open_.sum(axis=1, out=hi[first:first + len(p)])
        return lo, hi

    return NormOptInstance(
        K=K, M=M, N=N,
        f=f, grad_f=grad_f, hess_lagrangian=hess_lagrangian,
        G=G, grad_G_cols=grad_G_cols,
        f_batch=f_batch, G_batch=G_batch, violations_along=violations_along,
        G_step=None if W is None else G_step,
        xi_sq=xi_sq, xi_signs=signs, xi_patch_at=patch_at, xi_patch_mag=patch_mag,
        b=float(b),
        lambda1=float(lambda1), lambda2=float(lambda2), seed=seed,
    )


def make_norm_opt(K: int, M: int, N: int, *, b: float = _DEFAULT_B,
                  lambda1: float = _DEFAULT_LAMBDA1, lambda2: float = _DEFAULT_LAMBDA2,
                  seed: int = 0) -> NormOptInstance:
    """Draw a seeded norm-design instance with i.i.d. standard normal samples.

    The draws are squared in place and kept as ``xi_sq`` and their sign
    bits; identical (dims, seed) reproduce the instance, and its ``xi`` the
    draws, bit for bit.

    The default threshold b = 100 makes a trivial instance at the default
    sizes: at K=10 the unconstrained minimiser x = 1/(2*lambda2) keeps every
    sampled constraint far inside (the largest entry of G is about -73 for
    N=100, seed 0), so a solve from zero converges in one Newton step that
    no constraint shapes.  The paper's experiments use b in [14, 16].
    """
    if K < 1 or M < 1 or N < 1:
        raise ValueError(f"dimensions must be positive, got K={K} M={M} N={N}")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((N, M, K))
    return _build_norm_opt(xi, b, lambda1, lambda2, seed)


def norm_opt_draw(K: int, M: int, b: float = _DEFAULT_B):
    """Sampler for fresh norm-design constraint values at a fixed point.

    Returns a callable draw(x, count, rng) -> (M, count) matrix whose
    (m, i) entry is sum_k xi_mk^2 x_k^2 - b for an independent draw i.

    The draws go through one buffer of at most about _DRAW_CHUNK_ENTRIES
    normals, whole scenarios at a time, so memory beyond the output stays
    bounded whatever ``count`` is.  The normals are taken from ``rng`` in
    the order of one ``rng.standard_normal((count, M, K))`` call, so the
    values, and the state ``rng`` is left in, are those of that call.
    """
    if K < 1 or M < 1:
        raise ValueError(f"dimensions must be positive, got K={K} M={M}")
    if not 0 < b < math.inf:
        raise ValueError(f"threshold b must be positive and finite, got {b}")
    per_chunk = max(1, _DRAW_CHUNK_ENTRIES // (M * K))

    def draw(x, count, rng):
        x_sq = np.asarray(x, dtype=float) ** 2
        out = np.empty((M, count))
        buf = np.empty((min(per_chunk, count), M, K))
        for first in range(0, count, per_chunk):
            xi = buf[:min(per_chunk, count - first)]
            rng.standard_normal(out=xi)
            np.multiply(xi, xi, out=xi)
            np.einsum("imk,k->mi", xi, x_sq, out=out[:, first:first + len(xi)])
        out -= b
        return out

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

    def hess_lagrangian(x, rows, cols, w):
        # f has Hessian diag(2, 0), and of G only the entry in column 0
        # curves, also with Hessian diag(2, 0)
        out = np.zeros((2, 2))
        out[0, 0] = 2.0 + 2.0 * np.asarray(w, dtype=float)[np.asarray(cols) == 0].sum()
        return out

    def G(x):
        return np.array([[x[0] ** 2 - x[1], x[1] - 1.0]])

    def grad_G_cols(x, rows, cols):
        # column n = 0: (2*x0, -1); column n = 1: (0, 1)
        first = np.asarray(cols) == 0
        return np.array([np.where(first, 2.0 * x[0], 0.0), np.where(first, -1.0, 1.0)])

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
        f=f, grad_f=grad_f, hess_lagrangian=hess_lagrangian,
        G=G, grad_G_cols=grad_G_cols,
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


def load_samples(path, *, b: float = _DEFAULT_B, lambda1: float = _DEFAULT_LAMBDA1,
                 lambda2: float = _DEFAULT_LAMBDA2) -> NormOptInstance:
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
