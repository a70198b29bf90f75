"""Projection geometry: brute-force oracles, worked fixtures, random trials."""
import itertools
import math

import numpy as np
import pytest

from stepopt.geometry import (
    candidate_sets,
    column_partition,
    fixed_point_check,
    normal_cone_member,
    project_step,
    step_norm,
    tangent_cone_member,
)

# Worked 2x4 matrix used across the fixture tests: columns classify as
# positive, positive, zero-max, negative, and the two positive columns tie
# at positive-part norm 2.
Z_WORKED = np.array([[2.0, 2.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]])


def brute_force_projection(Z, s):
    """All minimizers of ||P - Z||_F with step_norm(P) <= s, by keep-subset scan.

    Every projection clamps some columns to min(., 0) and keeps at most s
    columns untouched; scanning all keep-subsets of size <= s is exhaustive.
    Returns (distance, list of matrices), deduplicated.
    """
    M, N = Z.shape
    best = None
    cands = {}
    for size in range(s + 1):
        for keep in itertools.combinations(range(N), size):
            P = np.minimum(Z, 0.0)
            P[:, list(keep)] = Z[:, list(keep)]
            d = float(np.linalg.norm(P - Z))
            key = P.tobytes()
            if best is None or d < best:
                best = d
            if key not in cands or d < cands[key][0]:
                cands[key] = (d, P)
    mins = [P for (d, P) in cands.values() if d == best]
    return best, mins


def as_key_set(mats):
    return {P.tobytes() for P in mats}


class TestStepNormAndPartition:
    def test_worked_matrix(self):
        assert step_norm(Z_WORKED) == 2
        part = column_partition(Z_WORKED)
        assert part.positive.tolist() == [0, 1]
        assert part.zero.tolist() == [2]
        assert part.negative.tolist() == [3]
        np.testing.assert_allclose(part.pos_norms, [2.0, 2.0, 0.0, 0.0])

    def test_all_nonpositive(self):
        Z = -np.ones((3, 4))
        assert step_norm(Z) == 0
        part = column_partition(Z)
        assert part.positive.size == 0
        assert part.negative.size == 4

    def test_tiny_positive_counts(self):
        Z = np.array([[1e-300, -1.0], [-1.0, -1.0]])
        assert step_norm(Z) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            step_norm(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            step_norm(np.array([[np.nan, 1.0]]))


class TestCandidateSets:
    def test_worked_matrix_s1(self):
        fam = candidate_sets(Z_WORKED, 1)
        assert fam.r == 1
        assert set(fam.sets) == {(1, 2), (0, 2)}
        # deterministic representative keeps column 0 on the tie
        assert fam.representative == (1, 2)

    def test_worked_matrix_s2(self):
        fam = candidate_sets(Z_WORKED, 2)
        assert fam.sets == ((2,),)
        assert fam.r == 2

    def test_within_budget_single_set(self):
        Z = np.array([[-1.0, 0.0, 2.0]])
        # one violating column, budget 2: clamp set is exactly the zero-max columns
        fam = candidate_sets(Z, 2)
        assert fam.sets == ((1,),)

    def test_strictly_larger_column_always_kept(self):
        # norms 5, 3, 3: the literal "norm >= r-th largest" filter would
        # admit dropping the 5; the projection-optimal family must not.
        Z = np.array([[5.0, 3.0, 3.0]])
        fam = candidate_sets(Z, 2)
        assert set(fam.sets) == {(1,), (2,)}

    def test_membership_helper(self):
        fam = candidate_sets(Z_WORKED, 1)
        assert (1, 2) in fam
        assert (0, 1) not in fam

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            candidate_sets(Z_WORKED, 0)


class TestProjection:
    def test_worked_matrix_s1(self):
        got = project_step(Z_WORKED, 1)
        want = [
            np.array([[0.0, 2.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]]),
            np.array([[2.0, 0.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]]),
        ]
        assert as_key_set(got) == as_key_set(want)

    def test_worked_matrix_s2(self):
        got = project_step(Z_WORKED, 2)
        assert len(got) == 1
        np.testing.assert_array_equal(got[0], Z_WORKED)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(20260816)
        for trial in range(300):
            Z = rng.uniform(-2.0, 2.0, size=(3, 5))
            for s in (1, 2):
                got = project_step(Z, s)
                dist, want = brute_force_projection(Z, s)
                assert as_key_set(got) == as_key_set(want)
                d_got = np.linalg.norm(got[0] - Z)
                assert abs(d_got - dist) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            Z = rng.uniform(-2.0, 2.0, size=(3, 5))
            for P in project_step(Z, 2):
                again = project_step(P, 2)
                assert len(again) == 1
                np.testing.assert_array_equal(again[0], P)

    def test_members_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            Z = rng.uniform(-2.0, 2.0, size=(4, 6))
            s = int(rng.integers(1, 6))
            for P in project_step(Z, s):
                assert step_norm(P) <= s

    def test_exact_zero_column_max(self):
        Z = np.array([[0.0, 1.0], [-1.0, 1.0]])
        got = project_step(Z, 1)
        assert len(got) == 1
        np.testing.assert_array_equal(got[0], Z)

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            project_step(Z_WORKED, 5)


class TestFixedPoint:
    def test_under_budget_requires_zero_w(self):
        Z = np.array([[-1.0, 2.0]])  # one violation, s = 2
        assert fixed_point_check(Z, np.zeros((1, 2)), 0.5, 2)
        assert not fixed_point_check(Z, np.array([[0.1, 0.0]]), 0.5, 2)

    def test_worked_matrix_boundary(self):
        # budget s=2 is tight; multipliers may live on the zero entry of the
        # zero-max column with tau * norm below the 2nd largest pos-norm (=2)
        for c in (0.0, 1.0, 2.6):
            W = np.zeros_like(Z_WORKED)
            W[0, 2] = c
            assert fixed_point_check(Z_WORKED, W, 0.75, 2)
        W = np.zeros_like(Z_WORKED)
        W[0, 2] = 2.0 / 0.75 + 1e-6
        assert not fixed_point_check(Z_WORKED, W, 0.75, 2)

    def test_negative_or_misplaced_multiplier_fails(self):
        W = np.zeros_like(Z_WORKED)
        W[0, 2] = -0.5
        assert not fixed_point_check(Z_WORKED, W, 0.75, 2)
        W = np.zeros_like(Z_WORKED)
        W[1, 2] = 0.5  # nonzero entry of the zero-max column: complementarity
        assert not fixed_point_check(Z_WORKED, W, 0.75, 2)
        W = np.zeros_like(Z_WORKED)
        W[0, 0] = 0.5  # support outside the zero-max columns
        assert not fixed_point_check(Z_WORKED, W, 0.75, 2)

    def test_over_budget_always_false(self):
        assert not fixed_point_check(Z_WORKED, np.zeros_like(Z_WORKED), 0.75, 1)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_tau_that_is_not_positive_and_finite(self, tau):
        # an infinite tau gave False, where tau = 0.75 gives True, with a
        # RuntimeWarning from inf * 0
        assert fixed_point_check([[1.0, 0.0, -1.0]], np.zeros((1, 3)), 0.75, 1)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            fixed_point_check([[1.0, 0.0, -1.0]], np.zeros((1, 3)), tau, 1)

    def test_agrees_with_projection_membership(self):
        rng = np.random.default_rng(101)
        for trial in range(200):
            Z = rng.uniform(-2.0, 2.0, size=(3, 4))
            W = rng.uniform(-1.0, 1.0, size=(3, 4))
            if rng.random() < 0.5:
                W[:, rng.integers(0, 4, size=2)] = 0.0
            tau = float(rng.uniform(0.05, 1.5))
            s = int(rng.integers(1, 4))
            got = fixed_point_check(Z, W, tau, s, tol=1e-9)
            members = project_step(Z + tau * W, s)
            member = min(np.linalg.norm(P - Z) for P in members) <= 1e-9
            assert got == member

    def test_constructed_fixed_points(self):
        rng = np.random.default_rng(102)
        for trial in range(200):
            M, N, s = 3, 5, 2
            Z = rng.uniform(-2.0, -0.1, size=(M, N))
            pos_cols = rng.choice(N, size=s, replace=False)
            zero_cols = [n for n in range(N) if n not in pos_cols][: rng.integers(1, 3)]
            Z[rng.integers(0, M), pos_cols[0]] = rng.uniform(0.5, 2.0)
            Z[rng.integers(0, M), pos_cols[1]] = rng.uniform(0.5, 2.0)
            for n in zero_cols:
                Z[rng.integers(0, M), n] = 0.0
            part = column_partition(Z)
            z_s = np.sort(part.pos_norms)[::-1][s - 1]
            tau = float(rng.uniform(0.1, 1.0))
            W = np.zeros_like(Z)
            for n in zero_cols:
                rows = np.flatnonzero(Z[:, n] == 0.0)
                W[rows, n] = rng.uniform(0.0, 1.0, size=rows.size)
                nrm = np.linalg.norm(W[:, n])
                if nrm > 0:
                    W[:, n] *= rng.uniform(0.1, 0.999) * z_s / (tau * nrm)
            assert fixed_point_check(Z, W, tau, s, tol=1e-9)
            members = project_step(Z + tau * W, s)
            assert min(np.linalg.norm(P - Z) for P in members) <= 1e-9
            # the clamp family of Z + tau*W collapses onto the zero-max columns
            fam = candidate_sets(Z + tau * W, s)
            assert fam.sets == (tuple(int(c) for c in part.zero),)


class TestCones:
    # second worked matrix: one violating column, two zero-max columns
    ZP = np.array([[2.0, 0.0, 0.0, -1.0], [0.0, -1.0, -2.0, -3.0]])

    def test_normal_cone_boundary(self):
        # Z_WORKED has exactly s=2 violations; cone lives on entry (0, 2)
        W = np.zeros_like(Z_WORKED)
        assert normal_cone_member(Z_WORKED, W, 2)
        W[0, 2] = 3.0
        assert normal_cone_member(Z_WORKED, W, 2)
        W[0, 2] = -1e-6
        assert not normal_cone_member(Z_WORKED, W, 2)
        W = np.zeros_like(Z_WORKED)
        W[1, 2] = 1.0
        assert not normal_cone_member(Z_WORKED, W, 2)
        W = np.zeros_like(Z_WORKED)
        W[0, 0] = 1.0
        assert not normal_cone_member(Z_WORKED, W, 2)

    def test_normal_cone_interior_is_origin(self):
        W = np.zeros_like(self.ZP)
        assert normal_cone_member(self.ZP, W, 2)
        W[0, 1] = 1e-6
        assert not normal_cone_member(self.ZP, W, 2)

    def test_tangent_cone_boundary(self):
        # at Z_WORKED with s=2 no column may be released: tangent iff D <= 0
        # at the zero entry of the zero-max column
        D = np.ones_like(Z_WORKED)
        D[0, 2] = -0.5
        assert tangent_cone_member(Z_WORKED, D, 2)
        D[0, 2] = 0.5
        assert not tangent_cone_member(Z_WORKED, D, 2)

    def test_tangent_cone_one_release(self):
        # at ZP one column may be released: positive direction allowed on one
        # of the two zero entries but not both
        D = np.zeros_like(self.ZP)
        D[0, 1] = 1.0
        assert tangent_cone_member(self.ZP, D, 2)
        D = np.zeros_like(self.ZP)
        D[0, 2] = 1.0
        assert tangent_cone_member(self.ZP, D, 2)
        D[0, 1] = 1.0
        assert not tangent_cone_member(self.ZP, D, 2)

    def test_cone_polarity(self):
        rng = np.random.default_rng(55)
        for Z, s in ((Z_WORKED, 2), (self.ZP, 2)):
            part = column_partition(Z)
            for _ in range(100):
                W = np.zeros_like(Z)
                mask = np.zeros(Z.shape, dtype=bool)
                if part.zero.size:
                    mask[:, part.zero] = Z[:, part.zero] == 0.0
                W[mask] = rng.uniform(0.0, 2.0, size=mask.sum())
                if not normal_cone_member(Z, W, s):
                    continue
                D = rng.uniform(-1.0, 1.0, size=Z.shape)
                D[mask] = rng.uniform(-1.0, 0.0, size=mask.sum())
                assert tangent_cone_member(Z, D, s)
                assert float((W * D).sum()) <= 1e-12

    def test_cones_reject_infeasible_base(self):
        with pytest.raises(ValueError):
            normal_cone_member(Z_WORKED, np.zeros_like(Z_WORKED), 1)
        with pytest.raises(ValueError):
            tangent_cone_member(Z_WORKED, np.zeros_like(Z_WORKED), 1)
