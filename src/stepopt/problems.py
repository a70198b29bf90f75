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
the solver's line search can count violations without evaluating G: the
model reads the samples once, in row blocks that stay in cache, yields its
bounds a chunk of steps at a time, largest steps first, and leaves out of
each later chunk the columns that convexity shows cannot violate at any
smaller step.
"""
from __future__ import annotations

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
# the empty patch (positions, magnitudes), shared by the instances that need none
_NO_PATCH = (np.empty(0, dtype=np.intp), np.empty(0))
# the norm-design defaults of make_norm_opt, load_samples and norm_opt_draw
_DEFAULT_B = 100.0
_DEFAULT_LAMBDA1 = 0.5
_DEFAULT_LAMBDA2 = 0.5
# norm_opt_draw fills a buffer of about this many normals at a time
_DRAW_CHUNK_ENTRIES = 1 << 17
# The violation model multiplies the samples by its two direction vectors
# in row blocks of about this many bytes, which stay in cache while BLAS
# reads them.  Over the 79 line searches of one K=50, M=20, N=2000 pool, a
# model build took a median 5.3 ms with one product over all rows, 4.1-4.8
# ms with blocks of 32-128 KiB, 3.7 ms at 256 KiB and 3.8-3.9 ms at 512
# KiB-2 MiB (one BLAS thread, 2-vCPU Xeon, 2 MiB of L2 per core).
_MODEL_BLOCK_BYTES = 1 << 18
# The model yields its bounds for about this many entries of G at a time:
# every trial step at once on small problems, a few at a time on large
# ones, so its temporaries stay a few times this size.
_MODEL_CHUNK_ENTRIES = 1 << 18


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
        ``violations_along(x, d, Z, alphas)``, with ``Z = G(x)``, models G
        along the ray x + a*d at the non-increasing step sizes ``alphas``
        in [0, 1], and raises ValueError if a step is larger than the one
        before it.  It returns None when it cannot, or an iterator that
        yields, for consecutive chunks of ``alphas`` in order, integer
        arrays (lo, hi) with ``lo <= step_norm(G(x + a*d)) <= hi`` for each
        step a of the chunk.  The bounds are exact statements about G as
        evaluated in floating point at the trial point ``x + a * d``, not
        about its exact value, so a line search that trusts them where both
        sit on one side of its cap decides exactly as if it had called G.
        As in ``step_norm``, an entry exactly zero does not violate.  The
        hook must describe this instance's own G, and reads ``alphas`` only
        when it is called.  The iterator may drop from later chunks the
        columns that earlier ones show not to violate at smaller steps.
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


def _build_norm_opt(xi: np.ndarray, b: float, lambda1: float, lambda2: float,
                    seed: Optional[int]) -> NormOptInstance:
    # xi is squared in place, so that building an instance never holds two
    # (N, M, K) arrays: the callers, make_norm_opt and load_samples, pass an
    # array of their own that nothing else reads
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
    if math.isinf(hi * hi):
        raise ValueError(f"sample draw of magnitude {hi!r} overflows when squared")
    if not b > 0:
        raise ValueError(f"threshold b must be positive, got {b}")
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
        x = np.asarray(x, dtype=float)
        return np.einsum("nmk,k->mn", xi_sq, x * x) - b

    def grad_G_cols(x, rows, cols):
        # columns of squared draws at the requested (m, n) pairs, times 2x
        return (2.0 * xi_sq[cols, rows, :] * np.asarray(x, dtype=float)).T

    def f_batch(X):
        X = np.asarray(X, dtype=float)
        return lambda2 * (X * X).sum(axis=1) + lambda1 * np.maximum(-X, 0.0).sum(axis=1) - X.sum(axis=1)

    def G_batch(X):
        X = np.asarray(X, dtype=float)
        return np.einsum("pk,nmk->pmn", X * X, xi_sq) - b

    # the samples as an (N*M, K) matrix whose row n*M + m is the (m, n)
    # constraint: a view of xi_sq, so the model reads it in place, and the
    # rows of it in one block of the model's coefficient pass
    xi_rows = xi_sq.reshape(N * M, K)
    block = max(1, _MODEL_BLOCK_BYTES // (xi_rows.itemsize * K))

    def violations_along(x, d, Z, alphas):
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
        #
        # The steps are copied once, as rows (1, a, a^2) of step powers, so
        # a caller that changes its array later changes no bound.
        powers = np.empty((len(alphas), 3))
        powers[:, 0] = 1.0
        powers[:, 1] = alphas
        a = powers[:, 1]
        if not (a[1:] <= a[:-1]).all():
            raise ValueError("violations_along: the steps must be non-increasing")
        powers[:, 2] = a * a
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if not x @ x + d @ d <= _SAFE_VAL:
            return None
        coef = np.empty((3, M, N))
        coef[0] = Z
        # c1 and c2 from BLAS products that read the samples in place, one
        # per row block, which stays in cache while it is read; row n*M + m
        # lands at (m, n), so that the column maxima below run over whole
        # rows of N entries.  xd is copied to C order: with the
        # Fortran-ordered transpose the blocks took as long as one product
        # over all rows.
        xd = np.array([2.0 * x * d, d * d]).T.copy()
        cd = np.empty((N * M, 2))
        for first in range(0, N * M, block):
            np.dot(xi_rows[first:first + block], xd, out=cd[first:first + block])
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

        per_chunk = max(1, _MODEL_CHUNK_ENTRIES // (M * N))
        return model_chunks(powers, per_chunk, coef.reshape(3, M * N), band_coef)

    def model_chunks(powers, per_chunk, rows, bands):
        # The (lo, hi) bounds of violations_along, per_chunk steps at a
        # time, from the model over the live columns: coefficient rows
        # (3, M*L), band rows (2, L) and, once a chunk has settled columns,
        # the column maxima of Z.
        #
        # The rounding bound of violations_along settles columns for every
        # step below one already tried.  c2 is a sum of nonnegative
        # products, so it is >= 0 as rounded too, and each entry's quadratic
        # q(a) = Z + a*c1 + a^2*c2, taken exactly on the rounded
        # coefficients, is convex in a: on [0, a_j] it stays below
        # max(Z, q(a_j)).  The rounding bound is a sum of parts, so it
        # bounds on its own the distance of G from q (the trial point, G's
        # own rounding and that of the coefficients) and that of the
        # evaluated model from q (its products and sums).  With t_j a
        # column's evaluated top at a_j, each of its entries of G at a step
        # a <= a_j is therefore at most
        #     max(Z, t_j + band(a_j)) + band(a),
        # and band(a) <= band(a_j), since rounding is monotone and e2 >= 0.
        # A column whose maxima of Z and t_j both sit below -2*band(a_j)
        # has every entry of G below zero at every step in [0, a_j]: it does
        # not violate there, whatever the model would read at that step.
        zmax = None
        for first in range(0, len(powers), per_chunk):
            if first:
                # settled here, when the search asks for another chunk: a
                # search that one chunk decides pays nothing for it
                j = int(p[:, 1].argmin())
                if zmax is None:
                    zmax = rows.reshape(3, M, N)[0].max(axis=0)
                keep = np.flatnonzero(np.maximum(top[j], zmax) >= 2.0 * band[j])
                if keep.size < zmax.size:
                    # np.take gathers whole columns about 3x faster than indexing
                    rows = np.take(rows.reshape(3, M, -1), keep, axis=2).reshape(3, -1)
                    bands, zmax = bands[:, keep], zmax[keep]
            p = powers[first:first + per_chunk]
            top = (p @ rows).reshape(len(p), M, -1).max(axis=1)
            band = p[:, ::2] @ bands
            # comparisons are exact: top > band iff the rounded top - band > 0
            lo = (top > band).sum(axis=1)
            np.negative(band, out=band)
            yield lo, bands.shape[1] - (top < band).sum(axis=1)

    return NormOptInstance(
        K=K, M=M, N=N,
        f=f, grad_f=grad_f, hess_lagrangian=hess_lagrangian,
        G=G, grad_G_cols=grad_G_cols,
        f_batch=f_batch, G_batch=G_batch, violations_along=violations_along,
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
