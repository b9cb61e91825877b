"""Belief-mixture numerics: measure functionals, regime classification,
margin bounds, and the distance between voting-result laws and beliefs.

For a state whose voters share a hidden belief Z ~ mu, the expected margin
per voter tracks mu_bar = E|Z| up to a two-sided 1/sqrt(N) sandwich. How
mu_bar scales with the population therefore decides whether fair weights
grow linearly or like sqrt(N); families sitting inside the epsilon band
around the 1/sqrt(N) decay rate are reported as unresolved rather than
forced into either verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .core import EXACT, MONTE_CARLO, CommonBelief, check_population
from .measures import (
    ATOMIC,
    UniformSymmetric,
    _abs_moment,
    _atom_arrays,
    binom_mean_abs_deviation,
    count_law,
    validate_belief,
)

LINEAR = "linear"
SQUARE_ROOT = "square_root"
BOUNDARY = "boundary"

#: Number of equal-mass atoms used to represent a continuous belief when
#: computing transport distances; the induced error is at most 1/(2 * ATOMS).
_TRANSPORT_ATOMS = 8192
#: Largest population of ``vote_share_law``: its N + 1 probabilities, sorted
#: with the transport atoms in ``distribution_distance``, take about 55 bytes
#: per voter at peak (0.6 GB at this cap).
VOTE_SHARE_MAX_N = 10**7


def mu_bar(belief):
    """Mean absolute belief, integral of |zeta| d mu."""
    return _abs_moment(validate_belief(belief), 1)


def second_moment(belief):
    """Integral of zeta^2 d mu; equals the covariance of any two voters
    under the induced voting measure."""
    return _abs_moment(validate_belief(belief), 2)


# --------------------------------------------------------------------------
# belief families and regime classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StraffinFamily:
    """Uniform beliefs on [-a_N, a_N] with a_N = c N^(-beta), clamped to
    (0, 1]."""

    c: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        # written to fail on NaN, which compares false
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"prefactor c must be finite and > 0, got {self.c}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"decay exponent beta must be finite and >= 0, got {self.beta}")

    def half_width(self, n):
        return min(1.0, self.c * float(n) ** (-self.beta))

    def __call__(self, n):
        return UniformSymmetric(self.half_width(n))


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of classifying a belief family's margin-scaling regime.

    ``decay_exponent`` is the fitted decay rate d of mu_bar(N) ~ N^(-d);
    the verdict compares d against 1/2 +- epsilon. ``weight_exponent`` is
    the predicted margin growth exponent (1 - d in the linear regime, 1/2
    in the square-root regime, None when unresolved).
    """

    verdict: str
    decay_exponent: float
    weight_exponent: float | None
    epsilon: float
    grid: tuple  # ((N, mu_bar_N), ...)


def classify_regime(family, epsilon, n_grid):
    """Classify a family N -> belief by fitting log mu_bar against log N.

    A finite grid resolves the decay exponent only up to its own spread, so
    exponents within ``epsilon`` of 1/2 yield the explicit ``boundary``
    verdict instead of a forced binary answer.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("need a non-empty population grid")
    mu_bars = [mu_bar(family(n)) for n in n_grid]
    if any(m <= 0.0 for m in mu_bars):
        # zero mean absolute belief decays faster than any power
        verdict, decay, alpha = SQUARE_ROOT, math.inf, 0.5
    elif len(set(n_grid)) < 2:
        raise ValueError("need at least two distinct populations to fit a decay rate")
    else:
        x = np.log(np.asarray(n_grid, dtype=float))
        y = np.log(np.asarray(mu_bars))
        design = np.vstack([x, np.ones_like(x)]).T
        (slope, _), *_ = np.linalg.lstsq(design, y, rcond=None)
        decay = -float(slope)
        if decay < 0.5 - epsilon:
            verdict, alpha = LINEAR, 1.0 - decay
        elif decay > 0.5 + epsilon:
            verdict, alpha = SQUARE_ROOT, 0.5
        else:
            verdict, alpha = BOUNDARY, None
    return RegimeReport(
        verdict=verdict,
        decay_exponent=decay,
        weight_exponent=alpha,
        epsilon=epsilon,
        grid=tuple(zip(n_grid, mu_bars)),
    )


# --------------------------------------------------------------------------
# margin bounds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginBoundReport:
    """Achieved gaps against the two 1/sqrt(N) bounds.

    ``mean_margin_fraction`` is E(|S|/N); ``sandwich_gap`` its distance to
    mu_bar; ``coupling_gap`` is E(|S - N Z|)/N, the coupled deviation whose
    bound drives the sandwich.
    """

    n: int
    mean_margin_fraction: float
    mu_bar: float
    sandwich_gap: float
    coupling_gap: float
    bound: float

    @property
    def sandwich_ok(self):
        return self.sandwich_gap <= self.bound

    @property
    def coupling_ok(self):
        return self.coupling_gap <= self.bound


def margin_bound_check(belief, n, mode="exact", samples=100_000, rng=None, workers=1):
    """Evaluate E(|S|/N) and check it against the mu_bar sandwich.

    ``mode``, "exact" or "monte_carlo", picks the ``estimators.expected_margin``
    route that gives E|S|. Either way the coupling moment E|S - N Z| is
    summed over the belief's transport atoms: its kernel has a kink at every
    p = m/N, which no fixed rule resolves.
    """
    validate_belief(belief)
    check_population(n)
    if mode not in (EXACT, MONTE_CARLO):
        raise ValueError(f"unknown mode {mode!r}")
    mean_margin = estimators.expected_margin(CommonBelief(belief), n, mode, samples, rng, workers).value
    zs, ws = _belief_atoms(belief)
    coupled = float(ws @ (2.0 * binom_mean_abs_deviation(n, (1.0 + zs) / 2.0)))
    mean_abs = mu_bar(belief)
    return MarginBoundReport(
        n=n,
        mean_margin_fraction=mean_margin / n,
        mu_bar=mean_abs,
        sandwich_gap=abs(mean_margin / n - mean_abs),
        coupling_gap=coupled / n,
        bound=1.0 / math.sqrt(n),
    )


# --------------------------------------------------------------------------
# distribution convergence
# --------------------------------------------------------------------------


def vote_share_law(belief, n):
    """Exact law of (1/N) sum of votes: lattice points (2k - N)/N for
    k = 0..N and their mixture probabilities under the belief. N is capped
    at ``VOTE_SHARE_MAX_N``, checked before anything is allocated."""
    if check_population(n) > VOTE_SHARE_MAX_N:
        raise ValueError(f"the vote-share law is limited to N <= {VOTE_SHARE_MAX_N}, got {n}")
    probs = np.maximum(count_law(CommonBelief(belief), n), 0.0)
    probs /= probs.sum()
    return (2.0 * np.arange(n + 1) - n) / n, probs


def _belief_atoms(belief):
    """Finite atomic representation of mu for transport distances.

    Atomic beliefs are exact; continuous ones are split into equal-width
    cells with midpoint atoms (for gridded beliefs each carrying its cell's
    mass under the piecewise-linear density), which perturbs the distance
    by less than 1e-4.
    """
    if isinstance(belief, ATOMIC):
        zs, ws = _atom_arrays(belief)
        return zs, ws / ws.sum()
    if isinstance(belief, UniformSymmetric):
        edges = np.linspace(-belief.a, belief.a, _TRANSPORT_ATOMS + 1)
        mids = (edges[:-1] + edges[1:]) / 2.0
        return mids, np.full(_TRANSPORT_ATOMS, 1.0 / _TRANSPORT_ATOMS)
    nodes = np.array(belief.nodes)
    per_cell = max(1, _TRANSPORT_ATOMS // (nodes.size - 1))
    sub = np.linspace(nodes[:-1], nodes[1:], per_cell + 1, axis=1)
    d = np.interp(sub, nodes, belief.densities)
    mids = ((sub[:, :-1] + sub[:, 1:]) / 2.0).ravel()
    masses = (np.diff(sub, axis=1) * (d[:, :-1] + d[:, 1:]) / 2.0).ravel()
    return mids, masses / masses.sum()


def distribution_distance(belief, n):
    """Wasserstein-1 distance between the exact vote-share law and mu.

    Transport distance is the metric matched to the coupling bound: the
    joint construction of (votes, Z) moves mass by at most E|S/N - Z|,
    so the distance is below 1/sqrt(N) for every symmetric belief.
    """
    values, probs = vote_share_law(belief, n)
    mu_vals, mu_ws = _belief_atoms(belief)
    return float(_wasserstein_1d(values, mu_vals, probs, mu_ws))


def _wasserstein_1d(u_values, v_values, u_weights, v_weights):
    """W1 of two weighted atomic laws on the line: the integral of |F_u - F_v|
    between successive atoms, by the steps of ``scipy.stats``'s 1-D
    ``wasserstein_distance`` (so the value is the same to the last bit)."""
    all_values = np.concatenate((u_values, v_values))
    all_values.sort(kind="mergesort")

    def cdf(values, weights):
        order = np.argsort(values)
        cum = np.concatenate(([0.0], np.cumsum(weights[order])))
        return cum[values[order].searchsorted(all_values[:-1], "right")] / cum[-1]

    return np.vecdot(np.abs(cdf(u_values, u_weights) - cdf(v_values, v_weights)), np.diff(all_values))
