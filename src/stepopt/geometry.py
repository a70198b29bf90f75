"""Geometry of the step-norm constraint set.

The objects here live in the space of M x N matrices Z whose (m, n) entry is
the value of the m-th constraint function on the n-th sample.  A column
"violates" when its largest entry is strictly positive, and the step norm of
Z counts violating columns.  The constraint set

    S = {Z : step_norm(Z) <= s}

is closed but nonconvex; this module computes the Euclidean projection onto
S, the set family that parameterizes it, a fixed-point test for the
projection of Z + tau*W, and membership tests for the tangent and (regular)
normal cones of S.  Everything is combinatorial on top of one quantity per
column: the norm of its positive part.

Indices are 0-based throughout.  Column classification uses exact floating
comparisons against zero; callers that need fuzz should round first.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ColumnPartition",
    "CandidateSetFamily",
    "step_norm",
    "column_partition",
    "candidate_sets",
    "is_candidate_set",
    "project_step",
    "fixed_point_check",
    "normal_cone_member",
    "tangent_cone_member",
]

# Hard limit on how many candidate sets a tie is allowed to generate before
# we give up; families larger than this only arise from adversarial exact
# ties between column norms.
FAMILY_CAP = 1 << 20


def _as_matrix(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
        raise ValueError("expected a nonempty 2-d constraint value matrix")
    if not np.all(np.isfinite(Z)):
        raise ValueError("constraint value matrix has non-finite entries")
    return Z


@dataclass(frozen=True)
class ColumnPartition:
    """Classification of columns by the sign of their maximum entry.

    Attributes
    ----------
    positive, zero, negative : ndarray of int
        Sorted column indices with max > 0, max == 0, max < 0.
    col_max : ndarray, shape (N,)
        Column maxima.
    pos_norms : ndarray, shape (N,)
        Euclidean norm of the positive part of each column.  Zero exactly on
        the columns outside ``positive``.
    """

    positive: np.ndarray
    zero: np.ndarray
    negative: np.ndarray
    col_max: np.ndarray
    pos_norms: np.ndarray


def column_partition(Z, ztol: float = 0.0) -> ColumnPartition:
    """Partition columns of Z by the sign of their maximum entry.

    ``ztol`` widens the zero class to column maxima within [-ztol, ztol],
    so numerically converged iterates classify like their exact limits.
    """
    Z = _as_matrix(Z)
    if ztol < 0:
        raise ValueError(f"ztol must be >= 0, got {ztol}")
    col_max = Z.max(axis=0)
    pos_norms = np.linalg.norm(np.maximum(Z, 0.0), axis=0)
    idx = np.arange(Z.shape[1])
    return ColumnPartition(
        positive=idx[col_max > ztol],
        zero=idx[np.abs(col_max) <= ztol],
        negative=idx[col_max < -ztol],
        col_max=col_max,
        pos_norms=pos_norms,
    )


def step_norm(Z) -> int:
    """Number of columns of Z whose maximum entry is strictly positive."""
    Z = _as_matrix(Z)
    return int(np.count_nonzero(Z.max(axis=0) > 0.0))


@dataclass(frozen=True)
class CandidateSetFamily:
    """All index sets whose clamping realizes the projection onto S.

    ``sets`` holds every valid choice, each a sorted tuple of column indices
    to clamp; ``representative`` is the deterministic member obtained by
    keeping the r columns of largest positive-part norm, ties broken toward
    the lower column index.  ``r`` is how many violating columns survive.
    """

    sets: tuple[tuple[int, ...], ...]
    r: int
    representative: tuple[int, ...] = field(default=())

    def __contains__(self, cols) -> bool:
        return tuple(int(c) for c in cols) in self.sets


def _ranked_positive(part: ColumnPartition) -> np.ndarray:
    """Columns with positive max, ordered by (pos norm desc, index asc)."""
    gp = part.positive
    order = np.lexsort((gp, -part.pos_norms[gp]))
    return gp[order]


def candidate_sets(Z, s: int, ztol: float = 0.0) -> CandidateSetFamily:
    """Enumerate the clamp sets realizing the projection onto S.

    With r = min(s, #violating columns), every member clamps all violating
    columns except r of largest positive-part norm, together with all
    columns whose maximum is exactly zero.  The family has more than one
    member only when column norms tie at the r-th largest value.

    Parameters
    ----------
    Z : array_like, shape (M, N)
    s : int
        Violation budget, s >= 1.
    ztol : float
        Zero-classification tolerance for column maxima (see
        :func:`column_partition`).

    Returns
    -------
    CandidateSetFamily
    """
    Z = _as_matrix(Z)
    if s < 1:
        raise ValueError(f"violation budget must be >= 1, got {s}")
    part = column_partition(Z, ztol=ztol)
    gp = part.positive
    r = min(int(s), gp.size)
    zero = tuple(int(c) for c in part.zero)

    if r == 0 or r == gp.size:
        # nothing to choose: keep every violating column (or there are none)
        keep_all = frozenset(int(c) for c in gp[:r]) if r else frozenset()
        drop = tuple(sorted(set(int(c) for c in gp) - keep_all))
        only = tuple(sorted(drop + zero))
        rep = only
        return CandidateSetFamily(sets=(only,), r=r, representative=rep)

    norms = part.pos_norms[gp]
    thresh = np.sort(part.pos_norms)[::-1][r - 1]  # r-th largest over all columns
    must_keep = [int(c) for c in gp[norms > thresh]]
    tied = [int(c) for c in gp[norms == thresh]]
    fill = r - len(must_keep)

    n_sets = math.comb(len(tied), fill)
    if n_sets > FAMILY_CAP:
        raise RuntimeError(
            f"candidate family has {n_sets} members (tie explosion); cap is {FAMILY_CAP}"
        )

    gp_set = set(int(c) for c in gp)
    sets = []
    for extra in itertools.combinations(sorted(tied), fill):
        kept = set(must_keep) | set(extra)
        sets.append(tuple(sorted((gp_set - kept) | set(zero))))
    sets = tuple(sorted(set(sets)))

    ranked = _ranked_positive(part)
    rep_keep = set(int(c) for c in ranked[:r])
    rep = tuple(sorted((gp_set - rep_keep) | set(zero)))
    return CandidateSetFamily(sets=sets, r=r, representative=rep)


def is_candidate_set(Z, s: int, cols, ztol: float = 0.0) -> bool:
    """``cols in candidate_sets(Z, s, ztol)``, decided without enumerating.

    ``cols`` qualifies when, as a strictly increasing index sequence, it
    holds every zero-max column and no column with a negative maximum, and
    keeps exactly r violating columns: every one whose positive-part norm
    lies above the r-th largest norm, none below it, and the tied ones to
    make up the count.  Exact ties therefore cost nothing here, however
    many members they give the family.
    """
    Z = _as_matrix(Z)
    if s < 1:
        raise ValueError(f"violation budget must be >= 1, got {s}")
    cols = np.asarray(cols).astype(int)
    N = Z.shape[1]
    if cols.size and not (cols[0] >= 0 and cols[-1] < N and (np.diff(cols) > 0).all()):
        return False
    part = column_partition(Z, ztol=ztol)
    clamp = np.zeros(N, dtype=bool)
    clamp[cols] = True
    if not clamp[part.zero].all() or clamp[part.negative].any():
        return False
    gp = part.positive
    r = min(int(s), gp.size)
    if np.count_nonzero(~clamp[gp]) != r:
        return False
    if r == gp.size:
        return True
    norms = part.pos_norms[gp]
    thresh = np.sort(part.pos_norms)[::-1][r - 1]  # r-th largest over all columns
    return not clamp[gp[norms > thresh]].any() and bool(clamp[gp[norms < thresh]].all())


def project_step(Z, s: int) -> list[np.ndarray]:
    """Euclidean projection of Z onto {step_norm <= s}, all minimizers.

    Each returned matrix clamps one candidate set of columns to their
    entrywise minimum with zero and copies the rest of Z.  The list has one
    entry per candidate set; distinct sets give distinct matrices.

    Parameters
    ----------
    Z : array_like, shape (M, N)
    s : int
        Violation budget, 1 <= s <= N.
    """
    Z = _as_matrix(Z)
    if not 1 <= s <= Z.shape[1]:
        raise ValueError(f"budget s={s} outside 1..{Z.shape[1]}")
    fam = candidate_sets(Z, s)
    out = []
    for cols in fam.sets:
        P = Z.copy()
        idx = list(cols)
        P[:, idx] = np.minimum(P[:, idx], 0.0)
        out.append(P)
    return out


def fixed_point_check(Z, W, tau: float, s: int, tol: float = 0.0) -> bool:
    """Test whether Z is a fixed point of projecting Z + tau*W onto S.

    Equivalent conditions, checked directly on (Z, W): with fewer than s
    violating columns W must vanish; with exactly s, W must vanish off the
    zero-max columns, be complementary to Z on them (W >= 0, Z <= 0,
    entrywise product 0), and each of its column norms there must stay below
    the s-th largest positive-part norm of Z divided by tau.  More than s
    violating columns always fails.

    All comparisons are within ``tol``.
    """
    Z = _as_matrix(Z)
    W = np.asarray(W, dtype=float)
    if W.shape != Z.shape:
        raise ValueError(f"W shape {W.shape} does not match Z shape {Z.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError("W has non-finite entries")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if s < 1:
        raise ValueError(f"violation budget must be >= 1, got {s}")

    part = column_partition(Z)
    k = part.positive.size
    if k > s:
        return False
    if k < s:
        return bool(np.linalg.norm(W) <= tol)

    on_zero = np.isin(np.arange(Z.shape[1]), part.zero)
    if np.linalg.norm(W[:, ~on_zero]) > tol:
        return False
    Wz = W[:, on_zero]
    Zz = Z[:, on_zero]
    if (Wz < -tol).any():
        return False
    if (np.abs(Wz * Zz) > tol).any():
        return False
    # s-th largest positive-part norm; k == s >= 1 so it is positive
    z_s = np.sort(part.pos_norms)[::-1][s - 1]
    col_norms = np.linalg.norm(Wz, axis=0)
    return bool((tau * col_norms <= z_s + tol).all())


def zero_mask(Z: np.ndarray, cols, ztol: float = 0.0) -> np.ndarray:
    """Boolean mask of the entries of Z in columns ``cols`` with |Z| <= ztol."""
    mask = np.zeros(Z.shape, dtype=bool)
    mask[:, cols] = np.abs(Z[:, cols]) <= ztol
    return mask


def normal_cone_member(Z, W, s: int, tol: float = 0.0) -> bool:
    """Test membership of W in the regular normal cone of S at Z.

    Z must satisfy step_norm(Z) <= s.  Strictly inside the budget the cone
    is {0}; on the boundary it consists of matrices supported on the zero
    entries of the zero-max columns with nonnegative values there.
    """
    Z = _as_matrix(Z)
    W = np.asarray(W, dtype=float)
    if W.shape != Z.shape:
        raise ValueError(f"W shape {W.shape} does not match Z shape {Z.shape}")
    part = column_partition(Z)
    k = part.positive.size
    if k > s:
        raise ValueError("Z violates the step-norm budget; cone undefined")
    if k < s:
        return bool(np.linalg.norm(W) <= tol)
    mask = zero_mask(Z, part.zero)
    if (W[mask] < -tol).any():
        return False
    return bool((np.abs(W[~mask]) <= tol).all())


def tangent_cone_member(Z, D, s: int, tol: float = 0.0) -> bool:
    """Test membership of the direction D in the tangent cone of S at Z.

    Z must satisfy step_norm(Z) <= s.  D is tangent when at most
    s - step_norm(Z) zero-max columns need to be released: a column must be
    released exactly when it has a zero entry of Z where D exceeds tol, so
    membership reduces to counting such columns.
    """
    Z = _as_matrix(Z)
    D = np.asarray(D, dtype=float)
    if D.shape != Z.shape:
        raise ValueError(f"D shape {D.shape} does not match Z shape {Z.shape}")
    part = column_partition(Z)
    k = part.positive.size
    if k > s:
        raise ValueError("Z violates the step-norm budget; cone undefined")
    budget = s - k
    if part.zero.size == 0:
        return True
    viol = (Z[:, part.zero] == 0.0) & (D[:, part.zero] > tol)
    need_release = int(np.count_nonzero(viol.any(axis=0)))
    return need_release <= budget
