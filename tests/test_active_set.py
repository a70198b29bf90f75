"""ActiveSet built from a mask against the validating pair constructor.

``from_mask`` takes its index arrays straight from the mask; the pair
constructor validates, deduplicates and sorts Python pairs.  The two must
give sets that agree in every attribute and operation.  The flat
column-major view must split a matrix exactly as the ``complement()``
index arrays do.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stepopt.stationarity import ActiveSet, active_set

import references

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def pairs_of(mask):
    """The True positions, listed row by row (not in the set's order)."""
    return [(m, n) for m in range(mask.shape[0]) for n in range(mask.shape[1]) if mask[m, n]]


def assert_same(got, want):
    assert got.shape == want.shape
    assert type(got.pairs) is tuple and got.pairs == want.pairs
    assert all(type(m) is int and type(n) is int for m, n in got.pairs)
    pairs = [(got.rows, want.rows), (got.cols, want.cols), (got.flat, want.flat),
             *zip(got.complement(), want.complement())]
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert len(got) == len(want)
    assert got.mask().dtype == bool and np.array_equal(got.mask(), want.mask())
    assert got == want and want == got and hash(got) == hash(want)


@st.composite
def masks(draw):
    M, N = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    return draw(arrays(bool, (M, N)))


@PROPERTY
@given(masks())
def test_from_mask_matches_the_pair_constructor(mask):
    got = ActiveSet.from_mask(mask)
    assert_same(got, ActiveSet(pairs_of(mask), mask.shape))
    assert np.array_equal(got.mask(), mask)


@PROPERTY
@given(masks(), st.data())
def test_equality_and_hash_follow_the_mask(a, data):
    # mostly masks of a's shape, so that unequal sets often share a shape
    b = data.draw(st.one_of(st.just(a.copy()), arrays(bool, a.shape), masks()))
    A, B = ActiveSet.from_mask(a), ActiveSet.from_mask(b)
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
    V = ActiveSet.from_mask(mask)
    M, _ = mask.shape
    assert not V.flat.flags.writeable
    assert np.all(np.diff(V.flat) > 0)
    assert np.array_equal(V.flat, V.cols * M + V.rows)
    W = data.draw(arrays(float, mask.shape, elements=VALUES))
    off = np.delete(W.T.ravel(), V.flat)
    assert bits(off) == bits(W[V.complement()])


@PROPERTY
@given(masks(), st.data())
def test_dense_update_matches_the_two_index_updates(mask, data):
    # the reference multiplier update, one dense add of a stacked step put
    # back into matrix form, against adding alpha * d on V and alpha * -W
    # off V through the index arrays
    V = ActiveSet.from_mask(mask)
    W = data.draw(arrays(float, mask.shape, elements=VALUES))
    d = data.draw(arrays(float, len(V), elements=VALUES))
    alpha = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    want = W.copy()
    want[V.rows, V.cols] += alpha * d
    crows, ccols = V.complement()
    want[crows, ccols] += alpha * -W[crows, ccols]
    assert bits(references.stacked_update(W, V, d, alpha)) == bits(want)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 12), st.data())
def test_active_set_reads_only_its_columns_and_matches_a_full_mask(M, N, data):
    # columns in any order, repeated or negative, as numpy indexing takes them
    Z = data.draw(arrays(float, (M, N), elements=VALUES))
    W = data.draw(arrays(float, (M, N), elements=VALUES))
    cols = data.draw(st.lists(st.integers(-N, N - 1), max_size=2 * N))
    tau = data.draw(st.sampled_from([0.75, 1e-3, 2.0]))
    ztol = data.draw(st.sampled_from([0.0, 1e-9, 1.0]))
    full = np.zeros((M, N), dtype=bool)
    if cols:
        full[:, cols] = (Z + tau * W)[:, cols] >= -ztol
    got = active_set(Z + tau * W, cols, ztol=ztol)
    assert_same(got, ActiveSet(pairs_of(full), (M, N)))


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
    assert_same(ActiveSet.from_mask(mask), ActiveSet(pairs_of(mask), mask.shape))


def test_mutating_the_mask_leaves_the_set_unchanged():
    mask = np.random.default_rng(5).random((3, 8)) < 0.4
    want = ActiveSet(pairs_of(mask), mask.shape)
    got = ActiveSet.from_mask(mask)
    mask ^= True  # before any lazy attribute of got is built
    assert_same(got, want)


def test_index_arrays_are_read_only():
    V = ActiveSet.from_mask(np.eye(3, dtype=bool))
    for a in (V.rows, V.cols, V.flat, *V.complement()):
        with pytest.raises(ValueError):
            a[0] = 1


def test_equality_and_hash_leave_pairs_unbuilt():
    A = ActiveSet.from_mask(np.eye(3, dtype=bool))
    B = ActiveSet.from_mask(np.eye(3, dtype=bool))
    assert A == B and hash(A) == hash(B) and len(A) == 3
    assert A._pairs is None and B._pairs is None


def test_sets_differing_in_one_attribute_are_unequal():
    A = ActiveSet([(0, 1)], (1, 2))
    assert A != ActiveSet([(0, 1)], (2, 2))   # shape only
    assert A != ActiveSet([(0, 0)], (1, 2))   # cols only
    assert ActiveSet([(1, 0)], (2, 1)) != ActiveSet([(0, 0)], (2, 1))   # rows only
    assert A != A.pairs
