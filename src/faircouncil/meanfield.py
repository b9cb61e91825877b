"""Mean-field numerics: the tanh fixed point, asymptotic weights across the
phase transition, and power-law fits of margin-vs-population grids.

The interaction model changes character at coupling 1: below it the expected
margin grows like sqrt(N) with a (1-J)^(-1/2) prefactor, above it like
C(J) N where C(J) solves tanh(J C) = C. The critical coupling itself admits
no closed asymptotic and is rejected by the asymptotic routes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ASYMPTOTIC, EXACT, MarginEstimate, check_population

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

#: A power-law fit needs this many distinct populations.
MIN_FIT_POINTS = 3

_BRACKET_FLOOR = 1e-8
_RESIDUAL_TOL = 1e-12


class SubcriticalCouplingError(ValueError):
    """tanh(J C) = C has no positive solution for J <= 1."""


class CriticalCouplingError(ValueError):
    """No asymptotic margin formula exists exactly at coupling 1."""


def solve_cj(coupling, full_output=False):
    """Positive solution C of tanh(J C) = C for J > 1, by bisection.

    tanh(J c) - c is positive at the lower bracket (its slope at 0 exceeds
    one) and negative at c = 1, or zero once tanh(J) rounds to 1 (J above
    about 18.7), so bisection cannot escape (0, 1]; the
    bracket is halved until it is tighter than 1e-15, and the residual is
    checked against 1e-12.
    """
    j = float(coupling)
    if not j > 1.0:
        raise SubcriticalCouplingError(
            f"coupling must exceed 1 for a positive fixed point, got {j}"
        )

    def f(c):
        return math.tanh(j * c) - c

    lo, hi = _BRACKET_FLOOR, 1.0
    if not (f(lo) > 0.0 >= f(hi)):
        raise SubcriticalCouplingError(f"no sign change on ({lo}, {hi}) for J={j}")
    iterations = 0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    c = 0.5 * (lo + hi)
    residual = f(c)
    if abs(residual) > _RESIDUAL_TOL:
        raise ArithmeticError(f"fixed-point residual {residual} exceeds {_RESIDUAL_TOL}")
    if full_output:
        return c, residual, iterations
    return c


def asymptotic_weight_meanfield(coupling, n):
    """Asymptotic E|S| for the interaction model: the square-root branch
    below coupling 1, the linear branch C(J) N above it."""
    j = float(coupling)
    if j < 0.0:
        raise ValueError("coupling must be >= 0")
    n = check_population(n)
    if j == 1.0:
        raise CriticalCouplingError("no asymptotic margin formula at the critical coupling 1")
    if j < 1.0:
        value = ROOT_2_OVER_PI / math.sqrt(1.0 - j) * math.sqrt(n)
    else:
        value = solve_cj(j) * n
    return MarginEstimate(value=value, std_error=0.0, method=ASYMPTOTIC, samples=0)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law margin ~ exp(log_prefactor) * N^exponent,
    fitted on log-log axes over ``grid`` = ((N, margin), ...)."""

    exponent: float
    log_prefactor: float
    r_squared: float
    grid: tuple

    def predicted(self, n):
        return math.exp(self.log_prefactor) * float(n) ** self.exponent


def fit_power_law(ns, values):
    """Ordinary least squares of log(value) on log(N)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.unique(ns).size < MIN_FIT_POINTS:
        raise ValueError(f"power-law fit needs at least {MIN_FIT_POINTS} distinct grid points")
    if np.any(values <= 0.0):
        raise ValueError("power-law fit needs positive values")
    x = np.log(ns)
    y = np.log(values)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def scaling_fit(model_family, n_grid, estimator_mode=EXACT, samples=100_000,
                rng=None, workers=1):
    """Fit the margin growth exponent over a population grid.

    ``model_family`` maps N to the voting model of a population of that
    size (a fixed model can be passed as ``lambda n: model``). Margins are
    computed per grid point by the requested estimator route.
    """
    from . import estimators

    n_grid = [int(n) for n in n_grid]
    margins = []
    for n in n_grid:
        est = estimators.expected_margin(
            model_family(n), n, method=estimator_mode, samples=samples,
            rng=rng, workers=workers,
        )
        margins.append(est.value)
    slope, intercept, r_squared = fit_power_law(n_grid, margins)
    return ScalingFit(
        exponent=slope,
        log_prefactor=intercept,
        r_squared=r_squared,
        grid=tuple(zip(n_grid, margins)),
    )
