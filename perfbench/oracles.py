"""Independent oracles for the exact routes, in mpmath at 30 digits.

Each function returns (E|S|, E S^2, P(S=0)) for a population n, computed
from closed forms or direct high-precision sums that share no code with the
library's binomial kernel or quadrature ladder.
"""

import mpmath as mp

mp.mp.dps = 30

#: Populations up to which the O(n) direct sums are affordable per run.
MEAN_FIELD_MAX_N = 1100
UNIFORM_MAX_N = 400


def _log_binom(n, k):
    return mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)


def independent(n):
    """E|S| = n C(n-1, floor((n-1)/2)) / 2^(n-1); P(S=0) = C(n, n/2) / 2^n."""
    margin = n * mp.exp(_log_binom(n - 1, (n - 1) // 2) - (n - 1) * mp.log(2))
    tie = mp.exp(_log_binom(n, n // 2) - n * mp.log(2)) if n % 2 == 0 else mp.mpf(0)
    return margin, mp.mpf(n), tie


def uniform_one(n):
    """Uniform(1) belief: K is uniform on {0..n}."""
    n = mp.mpf(n)
    if n % 2 == 0:
        return n * (n + 2) / (2 * (n + 1)), n + n * (n - 1) / 3, 1 / (n + 1)
    return (n + 1) / 2, n + n * (n - 1) / 3, mp.mpf(0)


def uniform_second(n, a):
    return mp.mpf(n) + mp.mpf(n) * (n - 1) * mp.mpf(a) ** 2 / 3


def uniform(n, a):
    """Uniform(a) belief by regularized incomplete beta integrals:
    C(n,k) * integral of p^k (1-p)^(n-k) over the belief's p-range is
    (I_x2 - I_x1)(k+1, n-k+1) / (n+1)."""
    a = mp.mpf(a)
    x1, x2 = (1 - a) / 2, (1 + a) / 2

    def mass(k):
        return mp.betainc(k + 1, n - k + 1, x1, x2, regularized=True) / (a * (n + 1))

    margin = mp.fsum(abs(2 * k - n) * mass(k) for k in range(n + 1) if 2 * k != n)
    tie = mass(n // 2) if n % 2 == 0 else mp.mpf(0)
    return margin, uniform_second(n, a), tie


def binom_abs(n, p):
    """E|2K - n| for K ~ Binomial(n, p), p != 1/2: the mean term plus twice
    the positive part, summed from the median side until negligible."""
    q = mp.mpf(min(p, 1 - p))
    mean_gap = n - 2 * n * q
    k = n // 2 + 1
    term_p = mp.exp(_log_binom(n, k) + k * mp.log(q) + (n - k) * mp.log(1 - q))
    tail = mp.mpf(0)
    ratio = q / (1 - q)
    while k <= n:
        term = (2 * k - n) * term_p
        tail += term
        if term < mp.mpf(10) ** -40 * mean_gap:
            break
        term_p *= (n - k) * ratio / (k + 1)
        k += 1
    return mean_gap + 2 * tail


def atoms(n, atom_list):
    margin = mp.mpf(0)
    second = mp.mpf(0)
    tie = mp.mpf(0)
    half = n // 2
    for z, w in atom_list:
        z, w = mp.mpf(z), mp.mpf(w)
        p = (1 + z) / 2
        margin += w * (independent(n)[0] if z == 0 else binom_abs(n, p))
        second += w * z * z
        if n % 2 == 0:
            tie += w * mp.exp(_log_binom(n, half) + half * mp.log(p * (1 - p)))
    return margin, n + n * (n - 1) * second, tie


def mean_field(n, coupling):
    """Direct sum over the Gibbs weights C(n,k) exp(J s^2 / (2(n-1)))."""
    j = mp.mpf(coupling)
    logw = [_log_binom(n, k) + j * (2 * k - n) ** 2 / (2 * (n - 1)) for k in range(n + 1)]
    top = max(logw)
    w = [mp.exp(x - top) for x in logw]
    z = mp.fsum(w)
    margin = mp.fsum(abs(2 * k - n) * wk for k, wk in enumerate(w)) / z
    second = mp.fsum((2 * k - n) ** 2 * wk for k, wk in enumerate(w)) / z
    tie = w[n // 2] / z if n % 2 == 0 else mp.mpf(0)
    return margin, second, tie


def digits(value, truth):
    """-log10 of the relative error (absolute where the truth is 0), capped at 16."""
    truth = mp.mpf(truth)
    err = abs(mp.mpf(value) - truth)
    if truth != 0:
        err /= abs(truth)
    if err == 0:
        return 16.0
    return min(16.0, -float(mp.log10(err)))
