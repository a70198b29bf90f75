"""Bounds tests: frozen values, extended-precision recomputation, MC harness."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from stepopt.bounds import (
    dkw_sample_size,
    feasibility_confidence,
    feasibility_sample_size,
    monte_carlo_feasibility,
    s_lower_bound,
)
from stepopt import problems
from stepopt.problems import norm_opt_draw

import references


def mp_dkw(epsilon, beta):
    with mpmath.workdps(60):
        val = mpmath.log(2 / mpmath.mpf(beta)) / (2 * mpmath.mpf(epsilon) ** 2)
        return int(mpmath.ceil(val))


def mp_feasibility(alpha, s, beta, exact):
    with mpmath.workdps(60):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        A = 2 * a * s + mpmath.log(8 / b ** 2)
        if exact:
            val = (A + mpmath.sqrt(A ** 2 - 4 * a ** 2 * s ** 2)) / (2 * a ** 2)
        else:
            val = A / a ** 2
        return int(mpmath.ceil(val))


def mp_confidence(alpha, s, N):
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        gap = a - mpmath.mpf(s) / N
        return float(1 - 2 * mpmath.sqrt(2) * mpmath.exp(-2 * gap ** 2 * N))


# ------------------------------------------------------------ dkw_sample_size

def test_dkw_frozen_value():
    assert dkw_sample_size(0.05, 0.05) == 738


def test_dkw_matches_extended_precision():
    rng = np.random.default_rng(0)
    for _ in range(100):
        eps = float(rng.uniform(0.005, 0.5))
        beta = float(rng.uniform(0.001, 0.5))
        assert abs(dkw_sample_size(eps, beta) - mp_dkw(eps, beta)) <= 1


def test_dkw_quarter_scaling():
    # doubling the accuracy parameter divides the count by four, up to ceiling
    assert abs(dkw_sample_size(0.05, 0.05) - 4 * dkw_sample_size(0.1, 0.05)) <= 4


def test_dkw_rejects_bad_ranges():
    with pytest.raises(ValueError):
        dkw_sample_size(0.05, 2.0)
    with pytest.raises(ValueError):
        dkw_sample_size(0.0, 0.05)
    with pytest.raises(ValueError):
        dkw_sample_size(0.05, 0.0)


# -------------------------------------------------- feasibility_sample_size

def test_feasibility_size_frozen_values():
    assert feasibility_sample_size(0.05, 5, 0.05) == 3429
    assert feasibility_sample_size(0.05, 5, 0.05, exact=True) == 3426


def test_feasibility_size_collapses_at_zero_budget():
    simplified = feasibility_sample_size(0.05, 0, 0.05)
    exact = feasibility_sample_size(0.05, 0, 0.05, exact=True)
    assert simplified == exact
    assert simplified == math.ceil(math.log(8 / 0.05 ** 2) / 0.05 ** 2)


def test_feasibility_size_exact_never_exceeds_simplified():
    rng = np.random.default_rng(1)
    for _ in range(300):
        alpha = float(rng.uniform(0.01, 0.3))
        beta = float(rng.uniform(0.001, 0.5))
        s = int(rng.integers(0, 50))
        exact = feasibility_sample_size(alpha, s, beta, exact=True)
        simplified = feasibility_sample_size(alpha, s, beta)
        assert exact <= simplified
        assert abs(exact - mp_feasibility(alpha, s, beta, True)) <= 1
        assert abs(simplified - mp_feasibility(alpha, s, beta, False)) <= 1


def test_feasibility_size_rejects_bad_ranges():
    with pytest.raises(ValueError):
        feasibility_sample_size(0.0, 5, 0.05)
    with pytest.raises(ValueError):
        feasibility_sample_size(0.05, -1, 0.05)
    with pytest.raises(ValueError):
        feasibility_sample_size(0.05, 5, 1.0)


# -------------------------------------------------- feasibility_confidence

def test_confidence_frozen_value():
    value = feasibility_confidence(0.1, 5, 689)
    assert value == pytest.approx(0.99998, abs=5e-6)
    assert value == pytest.approx(mp_confidence(0.1, 5, 689), rel=1e-12)


def test_confidence_increases_with_sample_count():
    values = [feasibility_confidence(0.1, 5, N) for N in (60, 100, 400, 2000)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_confidence_can_be_vacuous_but_is_not_clamped():
    assert feasibility_confidence(0.5, 0, 1) < 0.0


def test_confidence_requires_strict_budget_margin():
    with pytest.raises(ValueError):
        feasibility_confidence(0.1, 5, 50)  # s == alpha*N
    with pytest.raises(ValueError):
        feasibility_confidence(0.1, 6, 50)


# ------------------------------------------------------------ s_lower_bound

def test_s_lower_bound_frozen_value():
    bound, confidence = s_lower_bound(0.5, 0.05, 2000)
    assert bound == pytest.approx(50.0, rel=1e-12)
    assert confidence == pytest.approx(0.7678, abs=1e-4)


def test_s_lower_bound_confidence_grows_with_samples():
    confs = [s_lower_bound(0.5, 0.05, N)[1] for N in (500, 2000, 8000)]
    assert all(b > a for a, b in zip(confs, confs[1:]))


def test_s_lower_bound_vacuous_near_one():
    bound, confidence = s_lower_bound(0.999, 0.05, 100)
    assert confidence < 0.0
    assert bound == pytest.approx(0.999 * 0.05 * 100)


def test_s_lower_bound_rejects_bad_ranges():
    with pytest.raises(ValueError):
        s_lower_bound(0.0, 0.05, 100)
    with pytest.raises(ValueError):
        s_lower_bound(0.5, 1.0, 100)
    with pytest.raises(ValueError):
        s_lower_bound(0.5, 0.05, 0)


# --------------------------------------------------- monte_carlo_feasibility

def always_slack(x, count, rng):
    return -np.ones((1, count))


def always_tight(x, count, rng):
    return np.ones((1, count))


def test_mc_deterministic_family_passes_every_trial():
    rate = monte_carlo_feasibility(always_slack, np.zeros(2), alpha=0.05, s=1,
                                   N=20, trials=10, seed=0, holdout=100)
    assert rate == 1.0


def test_mc_zero_alpha_rejects_any_violation():
    def coin(x, count, rng):
        return np.where(rng.random((1, count)) < 0.5, 1.0, -1.0)

    rate = monte_carlo_feasibility(coin, np.zeros(1), alpha=0.0, s=8,
                                   N=10, trials=40, seed=3, holdout=200)
    assert rate == 0.0


def test_mc_raises_when_nothing_qualifies():
    with pytest.raises(RuntimeError):
        monte_carlo_feasibility(always_tight, np.zeros(2), alpha=0.1, s=0,
                                N=5, trials=10, seed=0, holdout=50)


def test_mc_same_seed_same_rate():
    draw = norm_opt_draw(10, 1, b=10.0)
    x = 0.5 * np.ones(10)
    args = dict(alpha=0.1, s=5, N=100, trials=20, seed=11, holdout=500)
    assert (monte_carlo_feasibility(draw, x, **args)
            == monte_carlo_feasibility(draw, x, **args))


def test_mc_norm_design_guarantee_direction():
    # x has true violation probability ~1.6e-5, far below alpha, so nearly
    # every trial qualifies and every qualifying trial passes
    draw = norm_opt_draw(10, 1, b=10.0)
    x = 0.5 * np.ones(10)
    rate = monte_carlo_feasibility(draw, x, alpha=0.1, s=5, N=689,
                                   trials=50, seed=7, holdout=2000)
    assert rate == 1.0


def test_mc_rejects_draws_that_are_not_finite_2d_matrices():
    # An all-NaN draw has no column maximum above zero, so it counted as
    # feasible and every trial passed.  The sample and the hold-out are
    # both counted by step_norm, which rejects it, as does norm_opt_draw
    # with a NaN b.
    def nan_draw(x, count, rng):
        return np.full((1, count), np.nan)

    def nan_holdout(x, count, rng):
        return -np.ones((1, count)) if count == 10 else np.full((1, count), np.nan)

    def flat_draw(x, count, rng):
        return -np.ones(count)

    args = dict(alpha=0.1, s=1, N=10, trials=3, seed=0, holdout=50)
    for draw, message in ((nan_draw, "non-finite"), (nan_holdout, "non-finite"),
                          (flat_draw, "2-d")):
        with pytest.raises(ValueError, match=message):
            monte_carlo_feasibility(draw, np.zeros(2), **args)


def test_mc_rejects_bad_ranges():
    with pytest.raises(ValueError):
        monte_carlo_feasibility(always_slack, np.zeros(2), alpha=1.0, s=1,
                                N=10, trials=5, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_feasibility(always_slack, np.zeros(2), alpha=0.1, s=1,
                                N=10, trials=0, seed=0)


# scenarios per buffer of the (K, M) = (20, 5) sampler
DRAW_K, DRAW_M = 20, 5
DRAW_CHUNK = max(1, problems._DRAW_CHUNK_ENTRIES // (DRAW_M * DRAW_K))


@pytest.mark.parametrize("count", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 10_000])
def test_buffered_draw_matches_the_one_shot_draw(count):
    x = np.linspace(0.5, 1.5, DRAW_K)
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    got = norm_opt_draw(DRAW_K, DRAW_M, 30.0)(x, count, ours)
    want = references.norm_opt_draw(DRAW_K, DRAW_M, 30.0)(x, count, theirs)
    assert got.shape == want.shape == (DRAW_M, count)
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_buffered_draw_memory_is_bounded():
    count = 10_000
    draw = norm_opt_draw(DRAW_K, DRAW_M)
    tracemalloc.start()
    try:
        draw(np.ones(DRAW_K), count, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * DRAW_M * DRAW_K * 8 / 4
