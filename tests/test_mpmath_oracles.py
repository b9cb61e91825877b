"""Exact routes against high-precision mpmath oracles.

The oracles share no code with the library: the independent-voter margin
is the central binomial closed form, the shifted-binomial moment is a
direct sum of |2k - n| P(k) outward from the mode, term by term through
the pmf ratio, until the terms drop below the working precision, the
mean-field moments are the same kind of sum over the Gibbs weights, and
the law of the yes-count under a piecewise-linear belief is a sum of
regularized incomplete betas over the belief's cells on all of [-1, 1].
"""

import math

import mpmath as mp
import numpy as np
import pytest

from faircouncil import (
    CommonBelief,
    GriddedDensity,
    Independent,
    MeanField,
    StateSpec,
    UniformSymmetric,
    expected_margin_exact,
)
from faircouncil.estimators import binom_abs_moments
from faircouncil.measures import count_law
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


def piecewise_linear_count_law(nodes, densities, n, ks, digits):
    """P(K = k) at each k in ``ks`` when the belief density runs linearly
    between the given nodes. On a cell [p0, p1] of p = (1 + z)/2 the density
    in z is alpha + beta p, dz = 2 dp, and C(n, k) p^k (1 - p)^(n - k) and p
    times it integrate to I(k + 1, n - k + 1)/(n + 1) and
    (k + 1) I(k + 2, n - k + 1)/((n + 1)(n + 2)), with I the regularized
    incomplete beta over [p0, p1]."""
    with mp.workdps(digits):
        law = []
        for k in ks:
            total = mp.mpf(0)
            for z0, z1, r0, r1 in zip(nodes[:-1], nodes[1:], densities[:-1], densities[1:]):
                p0, p1 = (1 + mp.mpf(z0)) / 2, (1 + mp.mpf(z1)) / 2
                beta = (mp.mpf(r1) - r0) / (p1 - p0)
                alpha = r0 - beta * p0
                row = mp.betainc(k + 1, n - k + 1, p0, p1, regularized=True) / (n + 1)
                tilted = (mp.betainc(k + 2, n - k + 1, p0, p1, regularized=True)
                          * (k + 1) / ((n + 1) * (n + 2)))
                total += 2 * (alpha * row + beta * tilted)
            law.append(total)
        return law


HAT_NODES = np.linspace(-1, 1, 201)
CONTINUOUS_BELIEFS = {
    **{f"uniform_{a:g}": ((-a, a), (0.5 / a, 0.5 / a)) for a in (1.0, 0.1, 1e-3, 1e-4, 1e-5, 1e-6)},
    "grid_flat": (np.linspace(-1, 1, 11), np.full(11, 0.5)),
    "grid_hat": (HAT_NODES, 1.0 - np.abs(HAT_NODES)),
}


@pytest.mark.parametrize("name", sorted(CONTINUOUS_BELIEFS))
@pytest.mark.parametrize("n", [16, 317])
def test_continuous_belief_count_law(name, n):
    nodes, densities = CONTINUOUS_BELIEFS[name]
    belief = UniformSymmetric(nodes[1]) if name.startswith("uniform") else GriddedDensity(nodes, densities)
    law = count_law(CommonBelief(belief), n)
    ks = sorted({0, 1, n // 3, n // 2, n - 1, n})
    # mpmath takes the betainc difference at the working precision, so the
    # smallest entry needs its own digits on top of the 30 checked
    digits = DIGITS + math.ceil(-math.log10(min(law[ks])))
    truths = piecewise_linear_count_law(list(nodes), list(densities), n, ks, digits)
    for k, truth in zip(ks, truths):
        assert _relative_error(law[k], truth) <= 1e-12, k


def uniform_tie(a, n):
    """P(S = 0) under the uniform belief on [-a, a] at even n:
    C(n, n/2) 2^-n (1/(2a)) times the integral of (1 - z^2)^(n/2) over [-a, a]."""
    with mp.workdps(DIGITS):
        integral = 2 * mp.quad(lambda z: (1 - z * z) ** (n // 2), [0, mp.mpf(a)])
        return mp.binomial(n, n // 2) / mp.mpf(2) ** n * integral / (2 * mp.mpf(a))


# the narrowest half-width is Straffin's a_N = N^(-3/4) at N = 1e7
@pytest.mark.parametrize("a", [1e-4, 5.6e-6, 1e-6])
def test_narrow_uniform_tie(a):
    n = 10**7
    value = state_tie_probability(StateSpec("u", n, CommonBelief(UniformSymmetric(a))))
    assert _relative_error(value, uniform_tie(a, n)) <= 1e-12


# beyond 1e7 a cell narrower than 1e-3 can span more than 4 standard
# deviations 1/sqrt(N) (9e-4 spans 28 at N = 1e9) and is cut into pieces
@pytest.mark.parametrize("n", [10**8, 84 * 10**6 + 2, 10**9])
@pytest.mark.parametrize("a", [3e-4, 9e-4])
def test_narrow_uniform_tie_up_to_the_budget(a, n):
    value = state_tie_probability(StateSpec("u", n, CommonBelief(UniformSymmetric(a))))
    assert _relative_error(value, uniform_tie(a, n)) <= 1e-12


def uniform_margin(a, n):
    """E|S| under the uniform belief on [-a, a] at even n = 2m. G(p) =
    E|K - m| has G(1/2) = m C(n, m)/2^n, G'(1/2) = 0 and G''(p) =
    2n(n-1) C(n-2, m-1) (p(1-p))^(m-1), so with p = (1 + z)/2 the average
    of 2 G over z swaps into one integral over y of (1 - y^2)^(m-1)."""
    m = n // 2
    with mp.workdps(DIGITS):
        a = mp.mpf(a)
        scale = n * (n - 1) * mp.binomial(n - 2, m - 1) / mp.mpf(4) ** (m - 1)
        integral = mp.quad(lambda y: (1 - y * y) ** (m - 1) * (a - y) ** 2 / 2, [0, a])
        return n * mp.binomial(n, m) / mp.mpf(2) ** n + scale * integral / a


@pytest.mark.parametrize("n", [10**8, 84 * 10**6 + 2, 10**9])
@pytest.mark.parametrize("a", [3e-4, 9e-4])
def test_narrow_uniform_margin_up_to_the_budget(a, n):
    value = expected_margin_exact(CommonBelief(UniformSymmetric(a)), n).value
    assert _relative_error(value, uniform_margin(a, n)) <= 1e-12


def mean_field_field_moments(coupling, n):
    """(E S^2, P(S=0)) of the mean-field law through the Hubbard-Stratonovich
    field: exp(J s^2 / (2(n-1))) is a Gaussian average of exp(h s) with
    variance J/(n-1), so given h the voters are independent with mean
    tanh(h), and the field has the weight exp(g(h)), g(h) = -(n-1) h^2/(2J)
    + n log cosh(h), up to 2^n. Then E S^2 = n + n(n-1) E tanh(h)^2, and
    P(S=0) = C(n, n/2) 2^-n sqrt(2 pi J/(n-1)) / (integral of exp(g)). The
    integral runs over h >= 0 (g is even), cut at the peak plus multiples
    of its width, n^(-1/4) at J = 1."""
    with mp.workdps(DIGITS):
        a = mp.mpf(n - 1) / coupling
        g = lambda h: -a * h * h / 2 + n * mp.log(mp.cosh(h))
        peak = mp.findroot(lambda h: n * mp.tanh(h) - a * h, coupling) if coupling > 1 else mp.mpf(0)
        curvature = a - n / mp.cosh(peak) ** 2
        width = 1 / mp.sqrt(curvature) if curvature > mp.sqrt(n) else mp.mpf(n) ** -0.25
        cuts = sorted({max(mp.mpf(0), peak + k * width) for k in range(-40, 41, 4)})
        top = g(peak)
        mass = mp.quad(lambda h: mp.exp(g(h) - top), cuts)
        second = mp.quad(lambda h: mp.exp(g(h) - top) * mp.tanh(h) ** 2, cuts)
        tie = (mp.binomial(n, n // 2) / mp.mpf(2) ** n * mp.sqrt(2 * mp.pi / a)
               / (2 * mp.exp(top) * mass))
        return n + n * (n - 1) * second / mass, tie


# J = 1 at N = 1e9 is left out: its law's window takes about 2 s and 0.9 GB
@pytest.mark.parametrize("coupling, n", [(0.5, 10**9), (1.5, 10**9), (1.0, 10**8)])
def test_mean_field_moments_through_the_field(coupling, n):
    state = StateSpec("mf", n, MeanField(coupling))
    second, tie = mean_field_field_moments(coupling, n)
    assert _relative_error(state_second_moment(state), second) <= 1e-12
    value = state_tie_probability(state)
    if float(tie) == 0.0:  # beyond the double range: the tie of J > 1
        assert value == 0.0
    else:
        assert _relative_error(value, tie) <= 1e-12
