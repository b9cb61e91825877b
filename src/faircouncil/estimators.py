"""Expected-margin estimators: exact, Monte Carlo, and asymptotic routes.

The expected margin E|S|, S the total spin of a state, is the quantity that
fixes the state's fair council weight. Exact evaluation uses the structure
of each measure: a closed form for the binomial moment (one cdf and one pmf
per success probability, de Moivre's identity), quadrature of that closed
form over the belief for common-belief mixtures, and the magnetization law
for the mean-field model. Monte Carlo draws every worker substream from one
``measures.totals_sampler``, built once per call.
"""

import math

import numpy as np
from scipy.stats import binom

from .core import (
    ASYMPTOTIC,
    EXACT,
    MONTE_CARLO,
    CommonBelief,
    Independent,
    MarginEstimate,
    MeanField,
    split_budget,
)
from . import meanfield
from .measures import (
    belief_expectation,
    magnetization_pmf,
    totals_sampler,
    validate_model,
)

#: The binomial routes cost O(1) per success probability, but the
#: mean-field law costs O(N); refuse populations beyond this by default
#: rather than stalling.
DEFAULT_POPULATION_BUDGET = 10**7

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _binom_abs_dev(n, p, t):
    """E|K - t| for K ~ Binomial(n, p), vectorized over p and t.

    De Moivre's mean-absolute-deviation identity, sum over k <= m of
    (np - k) P(k) = (n - m) p P(m), gives the closed form

        E|K - t| = np - t + 2 [(t - np) F(m) + (n - m) p P(m)],

    m = floor(t), with F and P the binomial cdf and pmf: one cdf and one
    pmf per p.
    """
    m = np.floor(t)
    tail = (t - n * p) * binom.cdf(m, n, p) + (n - m) * p * binom.pmf(m, n, p)
    return n * p - t + 2.0 * tail


def binom_abs_moments(n, ps):
    """E|2K - n| for K ~ Binomial(n, p), vectorized over p: twice the
    deviation about n/2, taken at q = max(p, 1 - p) by symmetry. There F(m)
    is a lower tail and the bracket a nonnegative correction; below
    p = 1/2, np - t would nearly cancel against 2 (t - np) F(m).
    """
    q = np.atleast_1d(np.asarray(ps, dtype=float))
    return 2.0 * _binom_abs_dev(n, np.maximum(q, 1.0 - q), n / 2.0)


def binom_mean_abs_deviation(n, ps):
    """E|K - n p| for K ~ Binomial(n, p), where the closed form reduces to
    2 (n - m) p P(m), m = floor(np); the coupling moment E|S - N Z| is this
    deviation about the conditional mean."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    return _binom_abs_dev(n, ps, n * ps)


def _belief_margin(belief, n, rel_tol=1e-10):
    """Quadrature of the binomial absolute-spin moment over the belief."""

    def f(zs):
        return binom_abs_moments(n, (1.0 + zs) / 2.0)

    return float(belief_expectation(belief, f, rel_tol=rel_tol))


def belief_coupling_moment(belief, n, rel_tol=1e-8):
    """E|S - N Z| under the belief mixture: the mean absolute deviation of
    the vote sum about its conditional mean, integrated over the belief."""

    def f(zs):
        return 2.0 * binom_mean_abs_deviation(n, (1.0 + zs) / 2.0)

    return float(belief_expectation(belief, f, rel_tol=rel_tol))


def expected_margin_exact(model, n, max_population=DEFAULT_POPULATION_BUDGET):
    """Exact E|S| for the model at population n.

    Routes: independent voters use the closed binomial sum; common-belief
    mixtures integrate the shifted-binomial moment over the belief measure;
    mean-field sums |s| against the magnetization law.
    """
    validate_model(model)
    if n < 1:
        raise ValueError("population must be >= 1")
    if n > max_population:
        raise ValueError(
            f"population {n} exceeds the exact-route budget {max_population}; "
            "use the Monte Carlo or asymptotic estimator"
        )
    if isinstance(model, Independent):
        value = float(binom_abs_moments(n, 0.5)[0])
    elif isinstance(model, CommonBelief):
        value = _belief_margin(model.belief, n)
    elif n == 1:
        value = 1.0
    else:
        value = magnetization_pmf(model.coupling, n).abs_moment()
    return MarginEstimate(value=value, std_error=0.0, method=EXACT, samples=0)


def expected_margin_mc(model, n, samples, rng, workers=1):
    """Monte Carlo E|S| from ``samples`` independent outcomes.

    The model's sampler is built once; the sample budget is split over
    ``workers`` disjoint substreams of ``rng``, drawn in turn from it, and
    merged by pooled mean/variance, so a rerun with the same
    (seed, stream_id, workers) reproduces the estimate bit for bit.
    """
    if samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    draw = totals_sampler(model, n)
    count = 0
    total = 0.0
    total_sq = 0.0
    for k, chunk in enumerate(split_budget(samples, workers)):
        if chunk == 0:
            continue
        margins = np.abs(draw(rng.worker(k), chunk)).astype(float)
        count += chunk
        total += float(margins.sum())
        total_sq += float((margins**2).sum())
    mean = total / count
    var = max(total_sq - count * mean**2, 0.0) / (count - 1)
    return MarginEstimate(
        value=mean,
        std_error=math.sqrt(var / count),
        method=MONTE_CARLO,
        samples=count,
    )


def expected_margin_asymptotic(model, n):
    """Large-N asymptotic E|S|.

    Independent voters: sqrt(2/pi) sqrt(N). Mean field: sqrt(2/pi)
    (1-J)^(-1/2) sqrt(N) below the critical coupling and C(J) N above it;
    J = 1 has no formula and is rejected. Common belief: N mu_bar when the
    mean absolute belief is positive, else the independent square-root law.
    The square-root constant in the positive-correlation regimes follows
    the central-limit argument; for vanishing-belief mixtures it is an
    extrapolation beyond the proven two-sided 1/sqrt(N) sandwich.
    """
    validate_model(model)
    if n < 1:
        raise ValueError("population must be >= 1")
    if isinstance(model, Independent):
        value = ROOT_2_OVER_PI * math.sqrt(n)
    elif isinstance(model, MeanField):
        return meanfield.asymptotic_weight_meanfield(model.coupling, n)
    else:
        from .commonbelief import mu_bar

        mean_abs = mu_bar(model.belief)
        value = n * mean_abs if mean_abs > 0.0 else ROOT_2_OVER_PI * math.sqrt(n)
    return MarginEstimate(value=value, std_error=0.0, method=ASYMPTOTIC, samples=0)


def expected_margin(model, n, method=EXACT, samples=100_000, rng=None, workers=1,
                    max_population=DEFAULT_POPULATION_BUDGET):
    """Dispatch to one of the three estimator routes."""
    if method == EXACT:
        return expected_margin_exact(model, n, max_population=max_population)
    if method == MONTE_CARLO:
        if rng is None:
            raise ValueError("Monte Carlo estimation needs an RngStream")
        return expected_margin_mc(model, n, samples, rng, workers=workers)
    if method == ASYMPTOTIC:
        return expected_margin_asymptotic(model, n)
    raise ValueError(f"unknown estimator method {method!r}")
