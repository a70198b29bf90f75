"""The library's active sets against the validating pair constructor.

``active_set`` and the tau check build their sets from index arrays taken
straight from a mask over some columns; the pair constructor validates,
deduplicates and sorts Python pairs.  The two must give sets that agree in
every attribute and operation.  The flat column-major view must split a
matrix into the entries on the set and, in column-major order, the
entries off it.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stepopt.problems import ProblemInstance
from stepopt.stationarity import ActiveSet, PrimalDualPoint, active_set, check_tau_stationary

import references
from reshape_fixtures import reshape_constraints

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def pairs_of(mask):
    """The True positions, listed row by row (not in the set's order)."""
    return [(m, n) for m in range(mask.shape[0]) for n in range(mask.shape[1]) if mask[m, n]]


def off_pairs(V):
    """The positions off V, listed column by column from its pairs."""
    M, N = V.shape
    on = set(V.pairs)
    return [(m, n) for n in range(N) for m in range(M) if (m, n) not in on]


def from_mask(mask):
    """The True positions of a boolean (M, N) mask, built by ``active_set``."""
    return active_set(np.where(mask, 0.0, -1.0), np.arange(mask.shape[1]))


def assert_same(got, want):
    assert got.shape == want.shape
    assert type(got.pairs) is tuple and got.pairs == want.pairs
    assert all(type(m) is int and type(n) is int for m, n in got.pairs)
    for a, b in [(got.rows, want.rows), (got.cols, want.cols), (got.flat, want.flat)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(got) == len(want)
    assert got == want and want == got and hash(got) == hash(want)


@st.composite
def masks(draw):
    M, N = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    return draw(arrays(bool, (M, N)))


@PROPERTY
@given(masks())
def test_from_mask_matches_the_pair_constructor(mask):
    assert_same(from_mask(mask), ActiveSet(pairs_of(mask), mask.shape))


@PROPERTY
@given(masks(), st.data())
def test_equality_and_hash_follow_the_mask(a, data):
    # mostly masks of a's shape, so that unequal sets often share a shape
    b = data.draw(st.one_of(st.just(a.copy()), arrays(bool, a.shape), masks()))
    A, B = from_mask(a), from_mask(b)
    same = a.shape == b.shape and np.array_equal(a, b)
    assert (A == B) == same and (A != B) == (not same)
    if same:
        assert hash(A) == hash(B)


# finite values with both signed zeros, so that a sign flip shows in the bytes
VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))


def bits(a):
    return a.dtype, a.shape, a.tobytes()


@PROPERTY
@given(masks(), st.data())
def test_flat_view_splits_W_as_the_complement_does(mask, data):
    V = from_mask(mask)
    M, _ = mask.shape
    assert not V.flat.flags.writeable
    assert np.all(np.diff(V.flat) > 0)
    assert np.array_equal(V.flat, V.cols * M + V.rows)
    W = data.draw(arrays(float, mask.shape, elements=VALUES))
    off = np.delete(W.T.ravel(), V.flat)
    assert bits(off) == bits(np.array([W[m, n] for m, n in off_pairs(V)], dtype=float))
    rows, cols = references.complement(V)
    assert list(zip(rows.tolist(), cols.tolist())) == off_pairs(V)


@PROPERTY
@given(masks(), st.data())
def test_dense_update_matches_the_two_index_updates(mask, data):
    # the reference multiplier update, one dense add of a stacked step put
    # back into matrix form, against adding alpha * d on V and alpha * -W
    # off V through the index arrays
    V = from_mask(mask)
    W = data.draw(arrays(float, mask.shape, elements=VALUES))
    d = data.draw(arrays(float, len(V), elements=VALUES))
    alpha = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    want = W.copy()
    want[V.rows, V.cols] += alpha * d
    for m, n in off_pairs(V):
        want[m, n] += alpha * -W[m, n]
    assert bits(references.stacked_update(W, V, d, alpha)) == bits(want)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 12), st.data())
def test_active_set_reads_only_its_columns_and_matches_a_full_mask(M, N, data):
    # columns in any order and repeated, as numpy indexing takes them
    Z = data.draw(arrays(float, (M, N), elements=VALUES))
    W = data.draw(arrays(float, (M, N), elements=VALUES))
    cols = data.draw(st.lists(st.integers(0, N - 1), max_size=2 * N))
    tau = data.draw(st.sampled_from([0.75, 1e-3, 2.0]))
    full = np.zeros((M, N), dtype=bool)
    if cols:
        full[:, cols] = (Z + tau * W)[:, cols] >= 0.0
    got = active_set(Z + tau * W, cols)
    assert_same(got, ActiveSet(pairs_of(full), (M, N)))


def test_active_set_rejects_a_negative_column():
    # numpy indexing reads -1 as the last column, which gave ActiveSet([(0, 2)])
    lam = np.array([[0.0, -1.0, 2.0]])
    for cols in ([-1], [0, -3], np.array([2, -1])):
        with pytest.raises(ValueError, match="column index -[13] is negative"):
            active_set(lam, cols)
    assert active_set(lam, []) == ActiveSet([], (1, 3))


def reshape_problem(M, N):
    """G(x) is x reshaped column-major into (M, N); f is zero."""
    K = M * N
    return ProblemInstance(K=K, M=M, N=N, f=lambda x: 0.0, grad_f=lambda x: np.zeros(K),
                           hess_lagrangian=lambda x, rows, cols, w: np.zeros((K, K)),
                           f_batch=lambda X: np.zeros(len(X)), **reshape_constraints(M, N))


# zeros of both signs, values just inside and outside the zero tolerances
NEAR_ZERO = st.sampled_from([-1.0, -1e-9, -1e-12, -0.0, 0.0, 1e-12, 1e-9, 0.5])


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_tau_check_active_set_is_the_zeros_of_its_zero_columns(M, N, data):
    # V* holds the entries of G(x) within ztol of zero, in the columns whose
    # maximum is within ztol of zero
    Z = data.draw(arrays(float, (M, N), elements=NEAR_ZERO))
    W = data.draw(arrays(float, (M, N), elements=VALUES))
    ztol = data.draw(st.sampled_from([0.0, 1e-10, 1e-9]))
    point = PrimalDualPoint(Z.T.ravel(), W)
    got = check_tau_stationary(reshape_problem(M, N), point, 0.75, 1, ztol=ztol).active
    zero = [n for n in range(N) if abs(Z[:, n].max()) <= ztol]
    want = ActiveSet([(m, n) for n in zero for m in range(M) if abs(Z[m, n]) <= ztol], (M, N))
    assert_same(got, want)


RNG = np.random.default_rng(11)
EDGES = {
    "empty": np.zeros((3, 4), dtype=bool),
    "full": np.ones((3, 4), dtype=bool),
    "1xN": RNG.random((1, 9)) < 0.5,
    "Mx1": RNG.random((7, 1)) < 0.5,
    "1x1-empty": np.zeros((1, 1), dtype=bool),
    "1x1-full": np.ones((1, 1), dtype=bool),
}


@pytest.mark.parametrize("name", EDGES)
def test_from_mask_edge_cases(name):
    mask = EDGES[name]
    assert_same(from_mask(mask), ActiveSet(pairs_of(mask), mask.shape))


def test_mutating_the_mask_leaves_the_set_unchanged():
    mask = np.random.default_rng(5).random((3, 8)) < 0.4
    want = ActiveSet(pairs_of(mask), mask.shape)
    lam = np.where(mask, 0.0, -1.0)
    cols = np.arange(8)
    got = active_set(lam, cols)
    lam *= -1.0  # before any lazy attribute of got is built
    cols[:] = 0
    assert_same(got, want)


def test_index_arrays_are_read_only():
    V = from_mask(np.eye(3, dtype=bool))
    for a in (V.rows, V.cols, V.flat):
        with pytest.raises(ValueError):
            a[0] = 1


def test_equality_and_hash_leave_pairs_unbuilt():
    A = from_mask(np.eye(3, dtype=bool))
    B = from_mask(np.eye(3, dtype=bool))
    assert A == B and hash(A) == hash(B) and len(A) == 3
    assert A._pairs is None and B._pairs is None


def test_sets_differing_in_one_attribute_are_unequal():
    A = ActiveSet([(0, 1)], (1, 2))
    assert A != ActiveSet([(0, 1)], (2, 2))   # shape only
    assert A != ActiveSet([(0, 0)], (1, 2))   # cols only
    assert ActiveSet([(1, 0)], (2, 1)) != ActiveSet([(0, 0)], (2, 1))   # rows only
    assert A != A.pairs
