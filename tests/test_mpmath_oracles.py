"""Exact routes against high-precision mpmath oracles.

The oracles share no code with the library: the independent-voter margin
is the central binomial closed form, the shifted-binomial moment is a
direct sum of |2k - n| P(k) outward from the mode, term by term through
the pmf ratio, until the terms drop below the working precision, and the
mean-field moments are the same kind of sum over the Gibbs weights.
"""

import mpmath as mp
import pytest

from faircouncil import Independent, MeanField, StateSpec, expected_margin_exact
from faircouncil.estimators import binom_abs_moments
from faircouncil.weights import state_second_moment, state_tie_probability

DIGITS = 30


def independent_margin(n):
    """E|S| = n C(n-1, floor((n-1)/2)) / 2^(n-1)."""
    with mp.workdps(DIGITS):
        return n * mp.binomial(n - 1, (n - 1) // 2) / mp.mpf(2) ** (n - 1)


def binom_abs_direct(n, p):
    """E|2K - n| for K ~ Binomial(n, p) as a direct high-precision sum."""
    with mp.workdps(DIGITS):
        p = mp.mpf(p)
        q = 1 - p
        mode = int(mp.floor((n + 1) * p))
        peak = mp.binomial(n, mode) * p**mode * q ** (n - mode)
        total = abs(2 * mode - n) * peak
        floor = peak * mp.mpf(10) ** (-DIGITS) / n
        term, k = peak, mode
        while k < n and term > floor:
            term *= mp.mpf(n - k) / (k + 1) * p / q
            k += 1
            total += abs(2 * k - n) * term
        term, k = peak, mode
        while k > 0 and term > floor:
            term *= mp.mpf(k) / (n - k + 1) * q / p
            k -= 1
            total += abs(2 * k - n) * term
        return total


@pytest.mark.parametrize("n", [10**5, 10**7])
def test_independent_margin(n):
    value = expected_margin_exact(Independent(), n).value
    assert abs(value / independent_margin(n) - 1) <= 1e-12


def test_shifted_binomial_moment():
    n = 10**5
    for p in (0.01, 0.3, 0.51, 0.9):
        value = binom_abs_moments(n, p)[0]
        assert abs(value / binom_abs_direct(n, p) - 1) <= 1e-12, p


#: Mean-field weights below exp(-MF_CUTOFF) of the peak's are left out of the
#: oracle's sums; what they hold is far below the 30 digits.
MF_CUTOFF = 60


def _mean_field_walk(n, coupling, start, step):
    """(k, weight) from ``start`` in direction ``step`` over the half line
    s = 2k - n >= 0, each weight C(n, k) exp(J s^2 / (2(n-1))) relative to
    start's through the ratio of neighbouring weights, until it drops below
    exp(-MF_CUTOFF)."""
    quad = mp.mpf(coupling) / (2 * (n - 1))
    floor = mp.exp(-MF_CUTOFF)
    k, w = start, mp.mpf(1)
    while (n + 1) // 2 <= k <= n and w >= floor:
        yield k, w
        s = 2 * k - n
        ratio = mp.mpf(n - k) / (k + 1) if step > 0 else mp.mpf(k) / (n - k + 1)
        w *= ratio * mp.exp(quad * ((s + 2 * step) ** 2 - s * s))
        k += step


def mean_field_moments(coupling, n):
    """(E|S|, E S^2, P(S=0)) of the mean-field law, summed outward from its
    peak: s = 0 up to J = 1, else s = n m with m > 0 the root of m = tanh(J m)."""
    with mp.workdps(DIGITS):
        j = mp.mpf(coupling)
        m = mp.findroot(lambda x: mp.tanh(j * x) - x, 1) if coupling > 1 else 0
        peak = min(max(int(mp.nint(n * (1 + m) / 2)), (n + 1) // 2), n)
        mass = first = second = tie = mp.mpf(0)
        terms = list(_mean_field_walk(n, coupling, peak, 1))
        terms += list(_mean_field_walk(n, coupling, peak, -1))[1:]
        for k, w in terms:
            s = 2 * k - n
            if s == 0:
                tie = w
            # s > 0 stands for both +s and -s
            mass += w if s == 0 else 2 * w
            first += 2 * s * w
            second += 2 * s * s * w
        return first / mass, second / mass, tie / mass


def _relative_error(value, truth):
    return float(abs(value - truth) / truth) if truth else abs(value)


# J = 1 at N = 1e7 is left out: its oracle sums about 9e5 terms (10-15 s)
@pytest.mark.parametrize("coupling, n", [
    *((j, n) for n in (10**5 + 1, 10**6) for j in (0.5, 1.0, 1.5, 3.0)),
    (0.5, 10**7), (1.5, 10**7), (3.0, 10**7),
])
def test_mean_field_moments(coupling, n):
    state = StateSpec("mf", n, MeanField(coupling))
    values = (expected_margin_exact(state.model, n).value, state_second_moment(state),
              state_tie_probability(state))
    for name, value, truth in zip(("E|S|", "E S^2", "P(S=0)"), values, mean_field_moments(coupling, n)):
        assert _relative_error(value, truth) <= 1e-12, name
