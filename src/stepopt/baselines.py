"""Independent verification oracles: brute-force grid search and MIP export.

The grid search certifies tiny instances by exhaustive evaluation over a box,
so solver output can be checked against a global reference that shares no
code with the Newton iteration.  The exporter writes the mixed-binary big-M
reformulation of a sampled norm-design instance as an LP-format text file for
external mixed-integer solvers; nothing in this package consumes the file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import step_norm
from .problems import NormOptInstance, ProblemInstance

__all__ = [
    "GridSpec",
    "grid_search",
    "BipModel",
    "build_bip_model",
    "export_bip",
]

GRID_CAP = 10_000_000
CHUNK = 65_536


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


def _num(v) -> str:
    return repr(float(v))


def _wrap(terms: list[str], joiner: str = " + ", per_line: int = 6,
          indent: str = "   ") -> str:
    lines = [joiner.join(terms[i:i + per_line])
             for i in range(0, len(terms), per_line)]
    return ("\n" + indent).join(lines)


@dataclass(frozen=True)
class BipModel:
    """Mixed-binary big-M reformulation of a sampled norm-design instance.

    One quadratic row per (scenario row, column) pair plus one cardinality
    row; y_n = 1 forces column n to satisfy its constraints, and at least
    N - s columns must be enforced.
    """

    K: int
    M: int
    N: int
    s: int
    b: float
    big_M: np.ndarray
    xi_sq: np.ndarray
    seed: int | None = None
    constraint_names: tuple[str, ...] = field(default=(), repr=False)

    def __post_init__(self):
        big_M = np.asarray(self.big_M, dtype=float)
        if big_M.shape != (self.N,) or not np.all(big_M > 0):
            raise ValueError("big_M must be a length-N vector of positive reals")
        object.__setattr__(self, "big_M", big_M)
        if self.xi_sq.shape != (self.N, self.M, self.K):
            raise ValueError("xi_sq must have shape (N, M, K)")
        if not 0 <= self.s <= self.N:
            raise ValueError(f"budget s must be in [0, N], got {self.s}")
        names = ["card"] + [f"g{m + 1}_{n + 1}"
                            for n in range(self.N) for m in range(self.M)]
        object.__setattr__(self, "constraint_names", tuple(names))

    def to_lp(self) -> str:
        """Render the model as deterministic LP-format text."""
        head = [
            "\\ mixed-binary reformulation of the sampled norm-design program",
            f"\\ K={self.K} M={self.M} N={self.N} s={self.s} b={_num(self.b)}"
            + (f" seed={self.seed}" if self.seed is not None else ""),
        ]
        obj = _wrap([f"- x{k + 1}" for k in range(self.K)], joiner=" ")
        rows = [" card: " + _wrap([f"y{n + 1}" for n in range(self.N)])
                + f" >= {self.N - self.s}"]
        for n in range(self.N):
            for m in range(self.M):
                quad = _wrap([f"{_num(self.xi_sq[n, m, k])} x{k + 1} ^2"
                              for k in range(self.K)])
                rows.append(
                    f" g{m + 1}_{n + 1}: [ {quad} ] + {_num(self.big_M[n])} y{n + 1}"
                    f" <= {_num(self.big_M[n] + self.b)}")
        bounds = [f" x{k + 1} >= 0" for k in range(self.K)]
        names_y = [f"y{n + 1}" for n in range(self.N)]
        binary = [" " + " ".join(names_y[i:i + 10])
                  for i in range(0, self.N, 10)]
        return "\n".join(
            head
            + ["Minimize", " obj: " + obj, "Subject To"]
            + rows
            + ["Bounds"] + bounds
            + ["Binary"] + binary
            + ["End", ""])


def build_bip_model(instance: NormOptInstance, s: int,
                    big_M: float = 10_000.0) -> BipModel:
    """Assemble the big-M model for a norm-design instance at budget s."""
    if not isinstance(instance, NormOptInstance):
        raise TypeError("big-M export is defined for norm-design instances only")
    if not big_M > 0:
        raise ValueError(f"big_M must be positive, got {big_M}")
    return BipModel(K=instance.K, M=instance.M, N=instance.N, s=s,
                    b=instance.b, big_M=np.full(instance.N, float(big_M)),
                    xi_sq=instance.xi_sq, seed=instance.seed)


def export_bip(instance: NormOptInstance, s: int, path,
               big_M: float = 10_000.0) -> str:
    """Write the LP-format big-M model to path and return the path."""
    model = build_bip_model(instance, s, big_M)
    with open(path, "w") as fh:
        fh.write(model.to_lp())
    return str(path)
