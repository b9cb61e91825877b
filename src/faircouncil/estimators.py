"""Expected-margin estimators: exact, Monte Carlo, and asymptotic routes.

The expected margin E|S|, S the total spin of a state, is the quantity that
fixes the state's fair council weight. This module keeps the routes and
the exact routes' budget; each route reads the one law that
``measures.state_law`` picks. The exact route takes its E|S|, Monte Carlo
draws every worker substream from its sampler, built once per call by
``measures.totals_sampler``, and pools them in ``core.pooled_mean``.
"""

import math

import numpy as np

from .core import (
    ASYMPTOTIC,
    EXACT,
    MONTE_CARLO,
    MarginEstimate,
    MeanField,
    check_population,
    pooled_mean,
)
from . import meanfield
# the binomial kernel and its Boost wrappers are also read from this module
from .measures import (
    _abs_moment,
    _binom_cdf,
    _binom_pmf,
    binom_abs_moments,
    binom_mean_abs_deviation,
    state_law,
    totals_sampler,
    validate_model,
)

#: The exact routes' documented domain, read by ``check_exact_route`` alone;
#: beyond it they refuse. Within it the binomial routes cost O(1) per success
#: probability, and the mean-field law its mass window: O(sqrt(N)) points,
#: O(N^(3/4)) at J = 1.
DEFAULT_POPULATION_BUDGET = 10**9


def check_exact_route(model, n):
    """Raise ValueError unless the exact routes take (model, n): a valid
    model, a whole n >= 1 and n within ``DEFAULT_POPULATION_BUDGET``."""
    validate_model(model)
    check_population(n)
    if n > DEFAULT_POPULATION_BUDGET:
        raise ValueError(
            f"population {n} exceeds the exact-route budget {DEFAULT_POPULATION_BUDGET}; "
            "use the Monte Carlo or asymptotic estimator"
        )


def expected_margin_exact(model, n):
    """Exact E|S| for the model at population n, from its ``state_law``."""
    check_exact_route(model, n)
    value = state_law(model, n).abs_moment()
    return MarginEstimate(value=value, std_error=0.0, method=EXACT, samples=0)


def expected_margin_mc(model, n, samples, rng, workers=1):
    """Monte Carlo E|S| from ``samples`` independent outcomes.

    The model's sampler is built once and read by ``core.pooled_mean``
    over ``workers`` disjoint substreams of ``rng``, so a rerun with the
    same (seed, stream_id, workers) reproduces the estimate bit for bit.
    """
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    draw = totals_sampler(model, n)
    mean, std_error, count = pooled_mean(
        lambda gen, size: np.abs(draw(gen, size)).astype(float), samples, rng, workers)
    return MarginEstimate(value=mean, std_error=std_error, method=MONTE_CARLO, samples=count)


def expected_margin_asymptotic(model, n):
    """Large-N asymptotic E|S|.

    Mean field, at every N: sqrt(2/pi) (1-J)^(-1/2) sqrt(N) below the
    critical coupling and C(J) N above it; J = 1 has no formula and is
    rejected. A binomial mixture: N mu_bar of its mixing belief when the
    mean absolute belief is positive, else the independent square-root law
    sqrt(2/pi) sqrt(N), which independent voters (the point mass) take.
    The square-root constant in the positive-correlation regimes follows
    the central-limit argument; for vanishing-belief mixtures it is an
    extrapolation beyond the proven two-sided 1/sqrt(N) sandwich.
    """
    validate_model(model)
    n = check_population(n)
    if isinstance(model, MeanField):
        return meanfield.asymptotic_weight_meanfield(model.coupling, n)
    mean_abs = _abs_moment(state_law(model, n).belief, 1)
    value = n * mean_abs if mean_abs > 0.0 else meanfield.ROOT_2_OVER_PI * math.sqrt(n)
    return MarginEstimate(value=value, std_error=0.0, method=ASYMPTOTIC, samples=0)


def expected_margin(model, n, method=EXACT, samples=100_000, rng=None, workers=1):
    """Dispatch to one of the three estimator routes."""
    if method == EXACT:
        return expected_margin_exact(model, n)
    if method == MONTE_CARLO:
        if rng is None:
            raise ValueError("Monte Carlo estimation needs an RngStream")
        return expected_margin_mc(model, n, samples, rng, workers=workers)
    if method == ASYMPTOTIC:
        return expected_margin_asymptotic(model, n)
    raise ValueError(f"unknown estimator method {method!r}")
