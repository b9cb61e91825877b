"""Binomial routes against high-precision mpmath oracles.

The oracles share no code with the library: the independent-voter margin
is the central binomial closed form, and the shifted-binomial moment is a
direct sum of |2k - n| P(k) outward from the mode, term by term through
the pmf ratio, until the terms drop below the working precision.
"""

import mpmath as mp
import pytest

from faircouncil import Independent, expected_margin_exact
from faircouncil.estimators import binom_abs_moments

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
