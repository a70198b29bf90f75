"""Baselines tests: grid-search oracle and big-M LP export."""
import numpy as np
import pytest

from stepopt.baselines import (
    BipModel,
    GridSpec,
    build_bip_model,
    export_bip,
    grid_search,
)
from stepopt.problems import ProblemInstance, make_counterexample, make_norm_opt

from reshape_fixtures import constant_constraints


def box_problem(target):
    """Smooth strictly convex objective, constraints always satisfied."""
    target = np.asarray(target, dtype=float)
    K = target.size

    return ProblemInstance(
        K=K, M=1, N=2,
        f=lambda x: float(np.sum((x - target) ** 2)),
        grad_f=lambda x: 2.0 * (x - target),
        hess_f=lambda x: 2.0 * np.eye(K),
        f_batch=lambda X: np.sum((X - target) ** 2, axis=1),
        **constant_constraints(K, -np.ones((1, 2))),
    )


def infeasible_problem():
    return ProblemInstance(
        K=2, M=1, N=2,
        f=lambda x: float(x @ x),
        grad_f=lambda x: 2.0 * x,
        hess_f=lambda x: 2.0 * np.eye(2),
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

def test_bip_model_structure():
    model = build_bip_model(make_norm_opt(2, 2, 3, b=5.0, seed=4), s=1)
    assert len(model.constraint_names) == 2 * 3 + 1
    assert model.constraint_names[0] == "card"
    assert "g2_3" in model.constraint_names
    text = model.to_lp()
    assert text.count("\n g") == 6  # one row per (m, n) pair
    assert "card: y1 + y2 + y3 >= 2" in text
    assert text.endswith("End\n")


def test_bip_smallest_instance():
    model = build_bip_model(make_norm_opt(1, 1, 1, b=5.0, seed=2), s=0)
    text = model.to_lp()
    assert model.constraint_names == ("card", "g1_1")
    assert "card: y1 >= 1" in text
    assert "^2 ] + 10000.0 y1 <= 10005.0" in text
    assert "x1 >= 0" in text
    assert "Binary\n y1\nEnd" in text


def test_bip_export_is_deterministic(tmp_path):
    instance = make_norm_opt(3, 1, 4, b=8.0, seed=9)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    export_bip(instance, 1, p1)
    export_bip(instance, 1, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == build_bip_model(instance, 1).to_lp()


def test_bip_custom_big_m_in_rhs(tmp_path):
    instance = make_norm_opt(1, 1, 2, b=3.0, seed=0)
    path = tmp_path / "m.lp"
    export_bip(instance, 1, path, big_M=500.0)
    text = path.read_text()
    assert "+ 500.0 y1 <= 503.0" in text
    assert "10000" not in text


def test_bip_rejects_bad_inputs():
    instance = make_norm_opt(1, 1, 2, b=3.0, seed=0)
    with pytest.raises(TypeError):
        build_bip_model(make_counterexample(), 1)
    with pytest.raises(ValueError):
        build_bip_model(instance, 1, big_M=0.0)
    with pytest.raises(ValueError):
        build_bip_model(instance, 3)  # s > N
    with pytest.raises(ValueError):
        BipModel(K=1, M=1, N=2, s=1, b=3.0, big_M=np.ones(3),
                 xi_sq=np.ones((2, 1, 1)))


def test_bip_header_records_dimensions_and_seed():
    text = build_bip_model(make_norm_opt(2, 1, 3, b=7.5, seed=6), s=2).to_lp()
    assert "\\ K=2 M=1 N=3 s=2 b=7.5 seed=6" in text
