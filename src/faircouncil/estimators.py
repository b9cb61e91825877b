"""Expected-margin estimators: exact, Monte Carlo, and asymptotic routes.

The expected margin E|S|, S the total spin of a state, is the quantity that
fixes the state's fair council weight. Every exact per-state moment reads
the one law that ``state_law`` picks: the magnetization law for the
mean-field Gibbs law, else a ``MixtureLaw``, which integrates a closed form
for the binomial moment (one cdf and one pmf per success probability, de
Moivre's identity) over the mixing belief by one fixed Gauss-Legendre rule
per cell (``measures.belief_expectation``). Monte Carlo draws every worker
substream from one ``measures.totals_sampler``, built once per call, and
pools them in ``core.pooled_mean``.
"""

import math
from dataclasses import dataclass

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
from .measures import (
    _abs_moment,
    _binom_cdf,
    _binom_pmf,
    _common_belief_law,
    belief_expectation,
    magnetization_pmf,
    mixing_belief,
    totals_sampler,
    validate_model,
)

#: The exact routes' documented domain, read by ``check_exact_route`` alone;
#: beyond it they refuse. Within it the binomial routes cost O(1) per success
#: probability, and the mean-field law its mass window: O(sqrt(N)) points,
#: O(N^(3/4)) at J = 1.
DEFAULT_POPULATION_BUDGET = 10**9


def _binom_abs_dev(n, p, t):
    """E|K - t| for K ~ Binomial(n, p), vectorized over p and t.

    De Moivre's mean-absolute-deviation identity, sum over k <= m of
    (np - k) P(k) = (n - m) p P(m), gives the closed form

        E|K - t| = np - t + 2 [(t - np) F(m) + (n - m) p P(m)],

    m = floor(t), with F and P the binomial cdf and pmf: one cdf and one
    pmf per p.
    """
    m = np.floor(t)
    tail = (t - n * p) * _binom_cdf(m, n, p) + (n - m) * p * _binom_pmf(m, n, p)
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
    2 (n - m) p P(m), m = floor(np); the coupling moment E|S - N Z| is
    twice this deviation about the conditional mean, summed over the
    belief's transport atoms in ``commonbelief.margin_bound_check``."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    return _binom_abs_dev(n, ps, n * ps)


@dataclass(frozen=True)
class MixtureLaw:
    """The law of S under the binomial mixture of n voters over a validated
    belief, read as a ``MagnetizationPmf`` is."""

    belief: object
    n: int

    def abs_moment(self, power=1):
        """E|S| by quadrature over the belief, or E S^2 = N + N(N-1) E Z^2."""
        n = self.n
        if power == 2:
            return n + n * (n - 1) * _abs_moment(self.belief, 2)
        if power != 1:
            raise ValueError(f"a mixture law gives power 1 or 2, got {power}")
        return float(belief_expectation(
            self.belief, lambda zs: binom_abs_moments(n, (1.0 + zs) / 2.0), n))

    def prob_of(self, s):
        """P(S = s), from the closed-form law of the yes-count at k and n - k."""
        k, odd = divmod(self.n + int(s), 2)
        if odd or not 0 <= k <= self.n:
            return 0.0
        ks = np.array(sorted({k, self.n - k}), dtype=float)
        return float(_common_belief_law(self.belief, self.n, ks)[0])


def state_law(model, n):
    """The law of S for n voters, picked here alone: ``magnetization_pmf`` for
    the mean-field Gibbs law, else the ``MixtureLaw`` over the mixing belief."""
    validate_model(model)
    belief = mixing_belief(model, n)
    if belief is None:
        return magnetization_pmf(model.coupling, n)
    return MixtureLaw(belief, n)


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
    mean_abs = _abs_moment(mixing_belief(model, n), 1)
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
