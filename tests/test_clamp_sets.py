"""Clamp-set choice and membership, decided without enumerating ties.

The solver picks the clamp representative directly, and the tau check tests
membership directly.  Both must agree with the family that
``candidate_sets`` enumerates, on random and on tie-heavy matrices small
enough to list it.  The family itself, built as one clamp mask, and the
projections read from that mask must match the plain per-member loop of
``references``.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import references
import stepopt.geometry as geometry
from stepopt.geometry import candidate_sets, column_partition, is_candidate_set, project_step
from stepopt.solver import select_candidate_columns

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# entries from a few values, so that positive-part norms tie often
TIE_VALUES = [-1.0, -0.5, 0.0, 0.5, 0.75, 1.0, 2.0]


@st.composite
def matrices(draw):
    M, N = draw(st.integers(1, 3)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        elements = st.sampled_from(TIE_VALUES)
    else:
        elements = st.floats(-3.0, 3.0, allow_nan=False)
    return draw(arrays(float, (M, N), elements=elements))


@PROPERTY
@given(matrices(), st.integers(1, 11))
def test_representative_matches_the_family(Z, s):
    assert tuple(select_candidate_columns(Z, s).tolist()) == candidate_sets(Z, s).representative


@PROPERTY
@given(matrices(), st.integers(1, 11), st.sampled_from([0.0, 0.5]), st.data())
def test_membership_matches_the_family(Z, s, ztol, data):
    fam = candidate_sets(Z, s, ztol=ztol)
    N = Z.shape[1]
    probes = list(fam.sets) + [fam.representative, column_partition(Z, ztol=ztol).zero]
    for cols in fam.sets:
        # one column more or less than a member
        for c in range(N):
            probes.append(sorted(set(cols) ^ {c}))
    probes.append(sorted(data.draw(st.sets(st.integers(0, N - 1)))))
    probes.append(data.draw(st.lists(st.integers(-1, N), max_size=4)))
    for cols in probes:
        assert is_candidate_set(Z, s, cols, ztol=ztol) == (cols in fam)


def test_membership_rejects_a_negative_ztol_for_every_probe():
    # the tolerance is checked before any probe can be turned away
    Z = np.array([[1.0, -1.0, 0.0]])
    for cols in ([2, 1], [0, 1], [5], []):
        with pytest.raises(ValueError, match="ztol"):
            is_candidate_set(Z, 1, cols, ztol=-1.0)
    with pytest.raises(ValueError, match="ztol"):
        candidate_sets(Z, 1, ztol=-1.0)


def test_membership_of_a_tie_too_large_to_enumerate():
    # 60 tied violating columns with room for 5: C(60, 5) members
    Z = np.full((1, 100), -1.0)
    Z[0, :60] = 2.0
    Z[0, 60] = 0.0
    s = 5
    assert math.comb(60, s) > 1 << 20
    with pytest.raises(RuntimeError, match="tie explosion"):
        candidate_sets(Z, s)
    assert is_candidate_set(Z, s, list(range(s, 60)) + [60])
    assert is_candidate_set(Z, s, list(range(55)) + [60])
    assert not is_candidate_set(Z, s, list(range(s + 1, 60)) + [60])       # keeps 6
    assert not is_candidate_set(Z, s, list(range(s - 1, 60)) + [60])       # keeps 4
    assert not is_candidate_set(Z, s, list(range(s, 60)))                  # zero column kept
    assert not is_candidate_set(Z, s, list(range(s, 100)))                 # negative ones too
    assert tuple(select_candidate_columns(Z, s).tolist()) == tuple(range(s, 61))


def test_zero_class_column_outweighing_violating_ones():
    # Within ztol = 0.5 column 0 is zero-max, yet its positive part is
    # longer than that of the violating columns 1 and 2.  Keeping all
    # violating columns is still the one member; keeping one of two is none.
    Z = np.array([[0.5, 0.75, 0.75], [0.5, -1.0, -1.0], [0.5, -1.0, -1.0]])
    probes = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
    for cols in (Z[:, :2], Z):
        fam = candidate_sets(cols, 1, ztol=0.5)
        for probe in probes:
            assert is_candidate_set(cols, 1, probe, ztol=0.5) == (probe in fam)
    assert candidate_sets(Z[:, :2], 1, ztol=0.5).sets == ((0,),)
    assert candidate_sets(Z, 1, ztol=0.5).sets == ()


# one matrix for each family shape the mask must reproduce
NO_VIOLATION = np.array([[-1.0, 0.0, -0.5], [-2.0, -1.0, 0.0]])      # r = 0
ALL_KEPT = np.array([[1.0, -1.0, 2.0, 0.0]])                          # r = #positive at s = 2
EMPTY = np.array([[0.5, 0.75, 0.75], [0.5, -1.0, -1.0], [0.5, -1.0, -1.0]])  # no member at ztol 0.5


@PROPERTY
@given(matrices(), st.integers(1, 11), st.sampled_from([0.0, 0.5]))
@example(NO_VIOLATION, 1, 0.0)
@example(ALL_KEPT, 2, 0.0)
@example(EMPTY, 1, 0.5)
def test_family_and_projections_match_the_loop(Z, s, ztol):
    fam = candidate_sets(Z, s, ztol=ztol)
    assert (fam.sets, fam.r, fam.representative) == references.candidate_sets(Z, s, ztol)
    assert all(type(c) is int for cols in fam.sets + (fam.representative,) for c in cols)
    if ztol == 0.0 and s <= Z.shape[1]:
        got, want = project_step(Z, s), references.project_step(Z, s)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_examples_reach_each_family_shape():
    assert candidate_sets(NO_VIOLATION, 1).r == 0
    fam = candidate_sets(ALL_KEPT, 2)
    assert fam.r == 2 == column_partition(ALL_KEPT).positive.size and fam.sets == ((3,),)
    assert candidate_sets(EMPTY, 1, ztol=0.5).sets == ()


def test_projections_are_independent_rows_of_one_array():
    Z = np.array([[1.0, 1.0, 1.0, -1.0]])
    out = project_step(Z, 1)
    assert [P.tolist() for P in out] == [[[0.0, 0.0, 1.0, -1.0]], [[0.0, 1.0, 0.0, -1.0]],
                                         [[1.0, 0.0, 0.0, -1.0]]]
    out[0][0, 0] = 7.0
    assert out[1][0, 0] == 0.0 and Z[0, 0] == 1.0


def test_cap_is_checked_before_the_mask_exists(monkeypatch):
    # 16 tied columns with room for 8: C(16, 8) members over 40 columns
    Z = np.full((1, 40), -1.0)
    Z[0, :16] = 1.0
    mask_bytes = math.comb(16, 8) * Z.shape[1]

    def peak_growth(call):
        """Bytes allocated at the peak of ``call`` beyond those held before."""
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held

    def refused(call):
        with pytest.raises(RuntimeError, match="tie explosion"):
            call()

    tracemalloc.start()
    try:
        built = peak_growth(lambda: candidate_sets(Z, 8))
        monkeypatch.setattr(geometry, "FAMILY_CAP", 1)
        growth = [peak_growth(lambda: refused(lambda: candidate_sets(Z, 8))),
                  peak_growth(lambda: refused(lambda: project_step(Z, 8)))]
    finally:
        tracemalloc.stop()
    assert built >= mask_bytes
    assert max(growth) < mask_bytes // 10
