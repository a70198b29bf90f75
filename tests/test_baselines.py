"""Baselines tests: grid-search oracle and big-M LP export."""
import math
import sys

import numpy as np
import pytest

from stepopt.baselines import GridSpec, _lp_text, export_bip, grid_search
from stepopt.problems import ProblemInstance, make_counterexample, make_norm_opt

import references
from reshape_fixtures import constant_constraints


def box_problem(target):
    """Smooth strictly convex objective, constraints always satisfied."""
    target = np.asarray(target, dtype=float)
    K = target.size

    return ProblemInstance(
        K=K, M=1, N=2,
        f=lambda x: float(np.sum((x - target) ** 2)),
        grad_f=lambda x: 2.0 * (x - target),
        hess_lagrangian=lambda x, rows, cols, w: 2.0 * np.eye(K),
        f_batch=lambda X: np.sum((X - target) ** 2, axis=1),
        **constant_constraints(K, -np.ones((1, 2))),
    )


def infeasible_problem():
    return ProblemInstance(
        K=2, M=1, N=2,
        f=lambda x: float(x @ x),
        grad_f=lambda x: 2.0 * x,
        hess_lagrangian=lambda x, rows, cols, w: 2.0 * np.eye(2),
        f_batch=lambda X: (X * X).sum(axis=1),
        **constant_constraints(2, np.ones((1, 2))),
    )


# ----------------------------------------------------------------- GridSpec

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(np.zeros(2), np.zeros(2), 11)  # lower == upper
    with pytest.raises(ValueError):
        GridSpec(np.zeros(2), np.ones(2), 0)
    with pytest.raises(ValueError):
        GridSpec(np.zeros(8), np.ones(8), 10)  # 10^8 points over the cap


def test_grid_spec_size_and_axes():
    spec = GridSpec(np.array([0.0, -1.0]), np.array([1.0, 1.0]), 5)
    assert spec.size == 25
    axes = spec.axes()
    assert np.allclose(axes[0], np.linspace(0, 1, 5))
    assert np.allclose(axes[1], np.linspace(-1, 1, 5))


# -------------------------------------------------------------- grid_search

def test_grid_search_certifies_the_two_variable_instance():
    problem = make_counterexample()
    spec = GridSpec(np.zeros(2), np.full(2, 5.0), 501)
    best_x, best_f = grid_search(problem, 1, spec)
    assert best_f <= 1e-4
    assert best_x[0] == pytest.approx(2.0, abs=0.01)


def test_grid_search_vacuous_budget_recovers_unconstrained_minimum():
    target = np.array([1.2345, 0.6789])
    problem = box_problem(target)
    spec = GridSpec(np.zeros(2), np.full(2, 2.0), 101)
    best_x, best_f = grid_search(problem, problem.N, spec)
    assert np.all(np.abs(best_x - target) <= 0.01 + 1e-12)
    assert best_f <= np.sum((0.01 * np.ones(2)) ** 2) + 1e-12


def test_grid_search_raises_when_nothing_is_feasible():
    with pytest.raises(ValueError):
        grid_search(infeasible_problem(), 0, GridSpec(np.zeros(2), np.ones(2), 7))


def test_grid_search_refinement_never_worsens():
    problem = make_counterexample()
    coarse = grid_search(problem, 1, GridSpec(np.zeros(2), np.full(2, 5.0), 301))[1]
    fine = grid_search(problem, 1, GridSpec(np.zeros(2), np.full(2, 5.0), 601))[1]
    assert fine <= coarse


def test_grid_search_dimension_mismatch():
    with pytest.raises(ValueError):
        grid_search(make_counterexample(), 1, GridSpec(np.zeros(3), np.ones(3), 5))


# ------------------------------------------------------------- big-M export

def exported(tmp_path, instance, s, **kwargs):
    path = tmp_path / "model.lp"
    assert export_bip(instance, s, path, **kwargs) == str(path)
    return path.read_text()


def test_bip_model_structure(tmp_path):
    text = exported(tmp_path, make_norm_opt(2, 2, 3, b=5.0, seed=4), 1)
    assert text.count("\n g") == 6  # one row per (m, n) pair
    assert " g2_3: [ " in text
    assert "card: y1 + y2 + y3 >= 2" in text
    assert text.endswith("End\n")


def test_bip_smallest_instance(tmp_path):
    text = exported(tmp_path, make_norm_opt(1, 1, 1, b=5.0, seed=2), 0)
    assert "card: y1 >= 1" in text
    assert "^2 ] + 10000.0 y1 <= 10005.0" in text
    assert "x1 >= 0" in text
    assert "Binary\n y1\nEnd" in text


def test_lp_text_of_a_one_column_model():
    assert _lp_text(np.ones((1, 1, 1)), 0, 1.0, 5.0, None) == "\n".join([
        "\\ mixed-binary reformulation of the sampled norm-design program",
        "\\ K=1 M=1 N=1 s=0 b=1.0",
        "Minimize", " obj: - x1", "Subject To",
        " card: y1 >= 1", " g1_1: [ 1.0 x1 ^2 ] + 5.0 y1 <= 6.0",
        "Bounds", " x1 >= 0", "Binary", " y1", "End", ""])


def test_bip_export_is_deterministic(tmp_path):
    instance = make_norm_opt(3, 1, 4, b=8.0, seed=9)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    export_bip(instance, 1, p1)
    export_bip(instance, 1, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == references.to_lp(instance.xi_sq, 1, instance.b, 10000.0, 9)


def test_bip_custom_big_m_in_rhs(tmp_path):
    instance = make_norm_opt(1, 1, 2, b=3.0, seed=0)
    path = tmp_path / "m.lp"
    export_bip(instance, 1, path, big_M=500.0)
    text = path.read_text()
    assert "+ 500.0 y1 <= 503.0" in text
    assert "10000" not in text


def test_bip_rejects_bad_inputs(tmp_path):
    instance = make_norm_opt(1, 1, 2, b=3.0, seed=0)
    path = tmp_path / "m.lp"
    with pytest.raises(TypeError):
        export_bip(make_counterexample(), 1, path)
    with pytest.raises(ValueError):
        export_bip(instance, 1, path, big_M=0.0)
    with pytest.raises(ValueError):
        export_bip(instance, 3, path)  # s > N
    assert not path.exists()


@pytest.mark.parametrize("big_M", [math.inf, math.nan, -1.0, np.float64(np.inf)])
def test_bip_rejects_a_big_m_that_is_not_positive_and_finite(tmp_path, big_M):
    # an infinite big-M wrote rows ending "+ inf y1 <= inf"
    path = tmp_path / "m.lp"
    with pytest.raises(ValueError, match="big_M"):
        export_bip(make_norm_opt(2, 1, 3, b=5.0, seed=0), 1, path, big_M=big_M)
    assert not path.exists()


@pytest.mark.parametrize("big_M", [sys.float_info.max, np.float64(sys.float_info.max)])
def test_bip_rejects_a_big_m_whose_sum_with_b_overflows(tmp_path, big_M):
    instance = make_norm_opt(2, 1, 3, b=1e300, seed=0)
    with pytest.raises(ValueError, match="big_M"):
        export_bip(instance, 1, tmp_path / "m.lp", big_M=big_M)
    # the largest float is a big-M where the sum stays finite
    text = exported(tmp_path, make_norm_opt(2, 1, 3, b=5.0, seed=0), 1, big_M=big_M)
    assert f"+ {sys.float_info.max!r} y1 <= {sys.float_info.max!r}" in text


@pytest.mark.parametrize("s", [1.5, 1.0, True, -1, 4, "1"])
def test_bip_rejects_a_budget_that_is_not_an_integer_in_range(tmp_path, s):
    # s = 1.5 wrote "card: y1 + y2 + y3 >= 1.5"
    path = tmp_path / "m.lp"
    with pytest.raises(ValueError, match="budget"):
        export_bip(make_norm_opt(2, 1, 3, b=5.0, seed=0), s, path)
    assert not path.exists()


@pytest.mark.parametrize("s", [0, 3, np.int64(2)])
def test_bip_accepts_every_integer_budget_from_0_to_N(tmp_path, s):
    text = exported(tmp_path, make_norm_opt(2, 1, 3, b=5.0, seed=0), s)
    assert f"y3 >= {3 - s}\n" in text and f" s={s} " in text


def test_bip_header_records_dimensions_and_seed(tmp_path):
    text = exported(tmp_path, make_norm_opt(2, 1, 3, b=7.5, seed=6), 2)
    assert "\\ K=2 M=1 N=3 s=2 b=7.5 seed=6" in text


@pytest.mark.parametrize("seed", [4, None])
@pytest.mark.parametrize("K", [1, 5, 6, 7, 20])
def test_lp_text_matches_the_per_coefficient_writer(K, seed):
    # K = 6 and 7 put the wrap of the quadratic terms at and past one line
    xi_sq = make_norm_opt(K, 2, 13, seed=4).xi_sq.copy()
    xi_sq[0, 0] = 1e-7
    xi_sq[1, 1] = 1e17
    xi_sq[2, 0, 0] = 0.0
    for big_M, rhs in ((1.0, " y13 <= 1.000000025"), (1e20, " y13 <= 1e+20")):
        text = _lp_text(xi_sq, 3, 2.5e-8, big_M, seed)
        assert text == references.to_lp(xi_sq, 3, 2.5e-8, big_M, seed)
        assert "1e-07 x1 ^2" in text and "1e+17 x1 ^2" in text and rhs in text
        assert ("seed=" in text) == (seed is not None)
