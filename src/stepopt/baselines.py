"""Independent verification oracles: brute-force grid search and MIP export.

The grid search certifies tiny instances by exhaustive evaluation over a box,
so solver output can be checked against a global reference that shares no
code with the Newton iteration.  The exporter writes the mixed-binary big-M
reformulation of a sampled norm-design instance as an LP-format text file for
external mixed-integer solvers; nothing in this package consumes the file.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .problems import NormOptInstance, ProblemInstance

__all__ = [
    "GridSpec",
    "grid_search",
    "export_bip",
]

GRID_CAP = 10_000_000
CHUNK = 65_536
# the big-M constant of export_bip
_DEFAULT_BIG_M = 10_000.0


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with the same number of sample points per dimension."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_dim: int

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("need lower < upper componentwise")
        if self.points_per_dim < 1:
            raise ValueError(f"points_per_dim must be >= 1, got {self.points_per_dim}")
        if self.size > GRID_CAP:
            raise ValueError(f"grid has {self.size} points; cap is {GRID_CAP}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def size(self) -> int:
        return self.points_per_dim ** self.dim

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, self.points_per_dim)
                for lo, hi in zip(self.lower, self.upper)]


def grid_search(problem: ProblemInstance, s: int, grid: GridSpec):
    """Best objective over grid points within the violation budget.

    Evaluates every point of the box lattice, keeps those with at most s
    violating constraint columns, and returns (best_x, best_f) with ties
    broken toward the lexicographically first grid point.  Raises ValueError
    when no grid point is feasible.  Points are evaluated in chunks through
    the problem's batch evaluators ``f_batch`` and ``G_batch``.
    """
    if s < 0:
        raise ValueError(f"budget s must be >= 0, got {s}")
    if grid.dim != problem.K:
        raise ValueError(f"grid is {grid.dim}-D but the problem has K={problem.K}")

    axes = grid.axes()
    shape = (grid.points_per_dim,) * grid.dim
    best_f = np.inf
    best_x = None
    for start in range(0, grid.size, CHUNK):
        idx = np.arange(start, min(start + CHUNK, grid.size))
        coords = np.unravel_index(idx, shape)
        X = np.stack([axes[k][coords[k]] for k in range(grid.dim)], axis=1)
        Z = np.asarray(problem.G_batch(X), dtype=float)
        feasible = np.count_nonzero(Z.max(axis=1) > 0.0, axis=1) <= s
        if not feasible.any():
            continue
        vals = np.asarray(problem.f_batch(X[feasible]), dtype=float)
        j = int(np.argmin(vals))
        if vals[j] < best_f:
            best_f = float(vals[j])
            best_x = X[feasible][j].copy()
    if best_x is None:
        raise ValueError("no grid point satisfies the violation budget")
    return best_x, best_f


def _wrap(terms: list[str], joiner: str = " + ", per_line: int = 6,
          indent: str = "   ") -> str:
    lines = [joiner.join(terms[i:i + per_line])
             for i in range(0, len(terms), per_line)]
    return ("\n" + indent).join(lines)


def _lp_text(xi_sq: np.ndarray, s: int, b: float, big_M: float, seed: int | None) -> str:
    """The big-M model of the samples ``xi_sq`` (N, M, K) as LP-format text.

    One quadratic row per (scenario row, column) pair plus one cardinality
    row; y_n = 1 forces column n to satisfy its constraints, and at least
    N - s columns must be enforced.  Numbers are written as ``repr`` of
    Python floats, so the text round-trips every coefficient exactly.  The
    K quadratic terms of a row share one wrapped template, filled from the
    flattened samples.
    """
    N, M, K = xi_sq.shape
    b, big_M = float(b), float(big_M)
    head = [
        "\\ mixed-binary reformulation of the sampled norm-design program",
        f"\\ K={K} M={M} N={N} s={s} b={b!r}" + (f" seed={seed}" if seed is not None else ""),
    ]
    obj = _wrap([f"- x{k + 1}" for k in range(K)], joiner=" ")
    rows = [" card: " + _wrap([f"y{n + 1}" for n in range(N)]) + f" >= {N - s}"]
    quad = _wrap([f"{{}} x{k + 1} ^2" for k in range(K)]).format
    coef = list(map(repr, np.asarray(xi_sq, dtype=float).ravel().tolist()))
    for n in range(N):
        tail = f" ] + {big_M!r} y{n + 1} <= {big_M + b!r}"
        for m in range(M):
            i = (n * M + m) * K
            rows.append(f" g{m + 1}_{n + 1}: [ " + quad(*coef[i:i + K]) + tail)
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


def export_bip(instance: NormOptInstance, s: int, path,
               big_M: float = _DEFAULT_BIG_M) -> str:
    """Write the LP-format big-M model of ``instance`` at budget s to path.

    Returns the path.  ``s`` must be an integer in [0, N], and ``big_M`` a
    positive, finite enforcement constant whose sum with the threshold b
    is finite.
    """
    if not isinstance(instance, NormOptInstance):
        raise TypeError("big-M export is defined for norm-design instances only")
    if not isinstance(s, numbers.Integral) or isinstance(s, bool) or not 0 <= s <= instance.N:
        raise ValueError(f"budget s must be an integer in [0, N={instance.N}], got {s!r}")
    if not 0 < big_M < math.inf or not math.isfinite(float(big_M) + float(instance.b)):
        raise ValueError(f"big_M must be positive and finite, and so must big_M + b,"
                         f" got {big_M!r}")
    with open(path, "w") as fh:
        fh.write(_lp_text(instance.xi_sq, s, instance.b, big_M, instance.seed))
    return str(path)
