"""Sample-size formulas and a Monte-Carlo check of the feasibility guarantee.

The closed forms answer three design questions for the sampled program: how
many scenarios make the empirical distribution accurate (Dvoretzky-Kiefer-
Wolfowitz), how many make a sample-feasible point carry its budget over to
the true chance constraint with high confidence, and how large the violation
budget must be before that transfer is even possible.  The Monte-Carlo
harness replays the middle guarantee on fresh scenario draws.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import step_norm

__all__ = [
    "dkw_sample_size",
    "feasibility_sample_size",
    "feasibility_confidence",
    "s_lower_bound",
    "monte_carlo_feasibility",
]

HOLDOUT_DRAWS = 100_000


def _check_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def dkw_sample_size(epsilon: float, beta: float) -> int:
    """Scenarios needed so the empirical CDF is within epsilon, confidence 1-beta.

    Returns ceil(ln(2/beta) / (2 epsilon^2)).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_unit("beta", beta)
    return math.ceil(math.log(2.0 / beta) / (2.0 * epsilon * epsilon))


def feasibility_sample_size(alpha: float, s: int, beta: float,
                            exact: bool = False) -> int:
    """Scenarios making a sample-feasible point chance-feasible at level alpha.

    With A = 2*alpha*s + ln(8/beta^2), the simplified count is ceil(A/alpha^2)
    and the exact one solves the underlying quadratic,
    ceil((A + sqrt(A^2 - 4 alpha^2 s^2)) / (2 alpha^2)); exact never exceeds
    simplified, and the two coincide at s = 0.
    """
    _check_unit("alpha", alpha)
    _check_unit("beta", beta)
    if s < 0:
        raise ValueError(f"budget s must be >= 0, got {s}")
    A = 2.0 * alpha * s + math.log(8.0 / (beta * beta))
    if not exact:
        return math.ceil(A / (alpha * alpha))
    disc = A * A - 4.0 * alpha * alpha * s * s
    return math.ceil((A + math.sqrt(disc)) / (2.0 * alpha * alpha))


def feasibility_confidence(alpha: float, s: int, N: int) -> float:
    """Confidence that sample feasibility at budget s transfers to level alpha.

    Returns 1 - 2*sqrt(2)*exp(-2*(alpha - s/N)^2*N), which requires s < alpha*N
    and may be negative (vacuous) for small N; the value is not clamped.
    """
    _check_unit("alpha", alpha)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if s < 0:
        raise ValueError(f"budget s must be >= 0, got {s}")
    if not s < alpha * N:
        raise ValueError(f"need s < alpha*N, got s={s}, alpha*N={alpha * N}")
    gap = alpha - s / N
    return 1.0 - 2.0 * math.sqrt(2.0) * math.exp(-2.0 * gap * gap * N)


def s_lower_bound(nu: float, alpha_star: float, N: int) -> tuple[float, float]:
    """Violation-budget threshold below which level alpha_star is unreachable.

    Returns (nu*alpha_star*N, 1 - 2*sqrt(2)*exp(-2*(1-nu)^2*alpha_star^2*N)):
    with the stated confidence, any point feasible at level alpha_star uses a
    budget above the bound.  The confidence may be negative (vacuous) and is
    returned as-is.
    """
    _check_unit("nu", nu)
    _check_unit("alpha_star", alpha_star)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    gap = (1.0 - nu) * alpha_star
    confidence = 1.0 - 2.0 * math.sqrt(2.0) * math.exp(-2.0 * gap * gap * N)
    return nu * alpha_star * N, confidence


def monte_carlo_feasibility(draw, x, alpha: float, s: int, N: int,
                            trials: int, seed: int,
                            holdout: int = HOLDOUT_DRAWS) -> float:
    """Empirical rate at which sample feasibility transfers to level alpha.

    ``draw(x, count, rng)`` must return an (M, count) matrix of constraint
    values at x for ``count`` independent scenarios.  Each trial draws a
    fresh N-scenario matrix; when x is feasible for it at budget s, a
    ``holdout``-scenario estimate of the true violation probability decides
    whether the trial passes (estimate <= alpha).  Returns passes divided by
    qualifying trials; trials use independently derived per-trial seeds.

    Both draws are counted by ``step_norm``, so a draw that is not a
    nonempty 2-d matrix of finite values raises ValueError.  Raises
    RuntimeError when no trial qualifies.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if s < 0 or N < 1 or trials < 1 or holdout < 1:
        raise ValueError("s must be >= 0 and N, trials, holdout >= 1")
    x = np.asarray(x, dtype=float)
    qualifying = 0
    passes = 0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        if step_norm(draw(x, N, rng)) > s:
            continue
        qualifying += 1
        violation = step_norm(draw(x, holdout, rng)) / holdout
        if violation <= alpha:
            passes += 1
    if qualifying == 0:
        raise RuntimeError("no trial produced a sample-feasible point")
    return passes / qualifying
