"""Voting measures: constructors, the law of the yes-count, and samplers.

Three families are implemented, all invariant under a global sign flip of
the votes:

* independent fair voters,
* the common-belief mixture (draw Z ~ mu on [-1, 1], then independent votes
  with yes-probability (1 + Z)/2),
* the mean-field (Curie-Weiss) Gibbs measure with weight
  exp(J S^2 / (2 (N-1))) in the total spin S.

Behind them stand two laws of the total, and ``state_law`` picks one per
(model, N): the windowed mean-field Gibbs law at N >= 2, or a
``MixtureLaw`` over a belief. Each carries E|S|, E S^2, P(S = s) and a
sampler of S, which every estimator route reads. The Gibbs law reads its
moments from a window ``MOMENT_NATS`` past its peak and its sampler from
the full ``WINDOW_NATS`` one, each built on first read. A point mass is
the one atom (0, 1): it and ``DiscreteSymmetric`` are read from ``atoms``.

A continuous belief is uniform or the piecewise-linear density through a
grid's nodes. Expectations over it take one fixed ``QUAD_NODES``-point
Gauss-Legendre rule per cell. The margin at population N splits its cells
at 12/sqrt(N): below, the rule evaluates the kernel once per node; beyond,
the margin is N E|Z| over those cells, in closed form. ``count_law``
gives the law of the yes-count K = (N + S)/2 per (model, N) with no
quadrature: on each cell of a continuous belief, P(K = k) is a difference
of binomial cdfs (regularized incomplete betas). Exact enumeration and the
common-belief tie P(S = 0) read this law, and ``pmf_exact`` shares
P(K = k) among the C(N, k) outcomes with k yes-votes. ``totals_sampler``
returns the law's sampler, built once per (model, N) and command; Monte
Carlo callers draw every worker substream's chunk from it, a mean-field
total by the guide table of its full window's cdf, with no scipy import.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .core import (
    ENUMERATION_CAP,
    CommonBelief,
    Independent,
    MeanField,
    as_outcome,
    check_population,
)

MASS_TOL = 1e-12
#: Gauss-Legendre nodes per cell in ``belief_expectation`` and the margin's cells below 12/sqrt(N).
QUAD_NODES = 64
#: No rule has this many nodes: the benchmark's tracer counts a Gauss-Legendre
#: rule this large as a cap hit, so it stays above ``QUAD_NODES``.
QUAD_MAX_NODES = 4096


@cache
def _special():
    """``scipy.special``, imported at the first call. Its import costs about
    as much start-up as numpy's, and no Monte Carlo route reads it: the
    mean-field log-weights take ``math.lgamma``. Every scipy name the
    library uses is read through here."""
    import scipy.special

    return scipy.special


# The Boost binomial ufuncs that scipy.stats.binom wraps, called without its
# argument checks or the scipy.stats import; callers pass valid (k, n, p).
def _binom_cdf(k, n, p):
    return _special()._ufuncs._binom_cdf(k, n, p)


def _binom_pmf(k, n, p):
    return _special()._ufuncs._binom_pmf(k, n, p)


def _binom_sf(k, n, p):
    return _special()._ufuncs._binom_sf(k, n, p)


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


# --------------------------------------------------------------------------
# belief distributions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMassZero:
    """All mass at zero belief; the induced voters are independent."""

    atoms = ((0.0, 1.0),)


@dataclass(frozen=True)
class UniformSymmetric:
    """Uniform belief on [-a, a] with 0 < a <= 1 (Straffin-type measure)."""

    a: float

    def __post_init__(self):
        a = float(self.a)
        if not 0.0 < a <= 1.0:
            raise ValueError(f"uniform half-width must lie in (0, 1], got {self.a}")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class DiscreteSymmetric:
    """Atoms (zeta, weight); must come in +-zeta pairs of equal weight,
    except that a zeta = 0 atom may stand alone."""

    atoms: tuple

    def __init__(self, atoms):
        object.__setattr__(self, "atoms", tuple((float(z), float(w)) for z, w in atoms))


@dataclass(frozen=True)
class GriddedDensity:
    """A density tabulated on an ascending grid over [-1, 1], read as the
    piecewise-linear density through the nodes. Symmetry is validated,
    never silently imposed."""

    nodes: tuple
    densities: tuple

    def __init__(self, nodes, densities):
        object.__setattr__(self, "nodes", tuple(float(x) for x in nodes))
        object.__setattr__(self, "densities", tuple(float(d) for d in densities))


BeliefDistribution = PointMassZero | UniformSymmetric | DiscreteSymmetric | GriddedDensity

#: Beliefs given by their ``atoms``, (zeta, weight) pairs.
ATOMIC = (PointMassZero, DiscreteSymmetric)


def validate_belief(belief):
    """Check total mass, symmetry, and support of a belief distribution,
    and return it. A valid belief is checked once, cached on the frozen
    belief; a failed check is not cached, so it raises at every use."""
    if not isinstance(belief, BeliefDistribution):
        raise TypeError(f"not a belief distribution: {belief!r}")
    _checked_belief(belief)
    return belief


def _check_belief(belief):
    # each check is written to fail on NaN, which compares false
    if isinstance(belief, (PointMassZero, UniformSymmetric)):
        return
    if isinstance(belief, DiscreteSymmetric):
        if not belief.atoms:
            raise ValueError("discrete belief needs at least one atom")
        zs, ws = _atom_arrays(belief)
        if not np.all(np.abs(zs) <= 1.0):
            raise ValueError("belief atoms must lie in [-1, 1]")
        if not np.all(ws >= 0.0):
            raise ValueError("atom weights must be >= 0")
        if not abs(ws.sum() - 1.0) <= MASS_TOL:
            raise ValueError(f"atom weights sum to {float(ws.sum())!r}, not 1")
        weight_of = {}
        for z, w in belief.atoms:
            weight_of[z] = weight_of.get(z, 0.0) + w
        for z, w in weight_of.items():
            if z != 0.0 and not abs(weight_of.get(-z, math.nan) - w) <= MASS_TOL:
                raise ValueError(f"atom at {z} lacks a mirror of equal weight")
        return
    if isinstance(belief, GriddedDensity):
        nodes = np.array(belief.nodes)
        dens = np.array(belief.densities)
        if nodes.size != dens.size or nodes.size < 2:
            raise ValueError("gridded belief needs matching nodes/densities of length >= 2")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly ascending")
        if nodes[0] < -1.0 or nodes[-1] > 1.0:
            raise ValueError("grid nodes must lie in [-1, 1]")
        if not np.all(dens >= 0.0):
            raise ValueError("densities must be >= 0")
        if not np.max(np.abs(nodes + nodes[::-1])) <= MASS_TOL:
            raise ValueError("grid nodes must be symmetric about 0")
        if not np.max(np.abs(dens - dens[::-1])) <= MASS_TOL:
            raise ValueError("densities must be symmetric about 0")
        mass = np.trapezoid(dens, nodes)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ValueError(f"gridded density integrates to {float(mass)!r}, not 1")


_checked_belief = lru_cache(maxsize=256)(_check_belief)


def _atom_arrays(belief):
    """(zs, ws) of an atomic belief: the strided columns of one array.
    ``@`` and ``tensordot`` order their sums by layout, so the quadrature
    reduces over a contiguous copy."""
    return tuple(np.array(belief.atoms).T)


def validate_model(model):
    """Validate a voting model, including any embedded belief."""
    if isinstance(model, CommonBelief):
        validate_belief(model.belief)
    elif not isinstance(model, (Independent, MeanField)):
        raise TypeError(f"not a voting model: {model!r}")
    return model


# --------------------------------------------------------------------------
# expectations over belief measures
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(count):
    return _special().roots_legendre(count)


def _half_line_cells(belief, cut=math.inf):
    """Rows (lower edge, upper edge, density at both ends) of the cells of a
    continuous belief on z >= 0: one flat cell for a uniform belief, and
    the piecewise-linear density through a grid's nodes, split at zero. A
    cell that straddles ``cut`` is split there, its density interpolated."""
    if isinstance(belief, UniformSymmetric):
        nodes, dens = np.array([0.0, belief.a]), (0.5 / belief.a,) * 2
    else:
        nodes, dens = np.array(belief.nodes), belief.densities
    # validated nodes ascend strictly, so the edges need no sort
    edges = np.concatenate([[0.0], nodes[nodes > 0.0]])
    if cut < edges[-1] and cut not in edges:
        edges = np.insert(edges, edges.searchsorted(cut), cut)
    rho = np.interp(edges, nodes, dens)
    return np.column_stack([edges[:-1], edges[1:], rho[:-1], rho[1:]])


def _abs_moment(belief, power, cells=None):
    """E|Z|^power (power 1 or 2) of a validated belief: the sum over its
    atoms, each term multiplied left to right as w |z| |z|, or Simpson's
    rule per cell of a continuous belief's linear density on z >= 0, exact
    for this cubic, doubled by symmetry. Given ``cells``, rows of
    ``_half_line_cells``, a continuous belief sums over those alone."""
    if isinstance(belief, ATOMIC):
        return float(sum(math.prod([w] + [abs(z)] * power) for z, w in belief.atoms))
    lo, hi, r0, r1 = (_half_line_cells(belief) if cells is None else cells).T
    mid = (lo + hi) / 2.0
    ends = r0 * lo**power + 2.0 * (r0 + r1) * mid**power + r1 * hi**power
    return float(np.sum((hi - lo) / 3.0 * ends))


def _cell_rule(cells, count):
    """Nodes and weights, flattened, of the ``count``-point Gauss-Legendre
    rule for the integral of a function against the linear density on each
    cell, rows of ``_half_line_cells``."""
    lo, hi, r0, r1 = (col[:, None] for col in np.asarray(cells).T)
    width = hi - lo
    x, w = _leggauss(count)
    t = (x + 1.0) / 2.0
    # weights w * width/2 (Jacobian) * the linear density on the cell
    return (lo + width * t).ravel(), (w * width / 2.0 * (r0 + (r1 - r0) * t)).ravel()


def belief_expectation(belief, f):
    """Integrate a (possibly vector-valued) function of zeta against mu.

    ``f`` takes an array of zeta values and returns an array whose leading
    axis matches it. Atomic measures are summed exactly. A uniform or
    gridded one takes a fixed ``QUAD_NODES``-point Gauss-Legendre rule on
    each cell of its piecewise-linear density; because mu is symmetric, the
    rule integrates the symmetrized integrand f(z) + f(-z) over z >= 0.
    """
    validate_belief(belief)
    if isinstance(belief, ATOMIC):
        zs, ws = _atom_arrays(belief)
        return np.tensordot(np.ascontiguousarray(ws), f(zs), axes=(0, 0))
    z, w = _cell_rule(_half_line_cells(belief), QUAD_NODES)
    return np.tensordot(w, f(z) + f(-z), axes=(0, 0))


def field_to_belief(h):
    """Map an external-field strength to its belief value, zeta = tanh(h)."""
    h = float(h)
    if not math.isfinite(h):
        raise ValueError("field strength must be finite")
    return math.tanh(h)


def belief_to_field(zeta):
    """Inverse of field_to_belief; rejects |zeta| >= 1."""
    z = float(zeta)
    if not abs(z) < 1.0:
        raise ValueError(f"belief value must satisfy |zeta| < 1, got {zeta}")
    return math.atanh(z)


# --------------------------------------------------------------------------
# exact probability mass functions
# --------------------------------------------------------------------------


def _log_binom(n, k):
    """log C(n, k) at the yes-counts k, from ``math.lgamma``: no scipy."""
    top = math.lgamma(n + 1.0)
    return np.array([top - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0)
                     for j in np.asarray(k, dtype=float).tolist()])


def _check_log_weights(coupling, n):
    """Refuse a coupling whose largest log-weight, at s = +-n, is not finite:
    J n^2 overflows above about 1.8e308, and such a coupling has no law."""
    if not math.isfinite(coupling * float(n) ** 2):
        raise ValueError(f"mean-field log-weights overflow at J = {coupling!r}, N = {n}")


def _meanfield_log_weights(coupling, n, k=None):
    """Log of binomial(n, k) * exp(J s^2 / (2(n-1))), s = 2k - n, at the
    yes-counts k, by default every k = 0..n."""
    _check_log_weights(coupling, n)
    k = np.arange(n + 1) if k is None else k
    return _log_binom(n, k) + coupling * (2.0 * k - n) ** 2 / (2.0 * (n - 1))


#: Log-weights further than this below the peak come out exactly 0 after
#: normalization, because ``exp`` underflows to 0 below about -745.
WINDOW_NATS = 800.0
#: How far past the peak the moment window reaches (bound in ``_gibbs_half``).
MOMENT_NATS = 100.0


def _yes_count(s, n):
    """k = (n + s)/2, or None where n voters cannot total s and P(S = s) = 0."""
    if not float(s).is_integer():
        return None
    k, odd = divmod(n + int(s), 2)
    return None if odd or not 0 <= k <= n else k


def _check_power(power):
    if power not in (1, 2):
        raise ValueError(f"a law gives power 1 or 2, got {power}")


class MagnetizationPmf:
    """Exact law of the total spin S under the mean-field measure.

    The law is symmetric in s -> -s, so it is kept on half-line windows
    ``(lo, half)``, ``half[i] = P(S = lo + 2i)``, built by ``_gibbs_half``
    on first read. The moment window serves ``abs_moment`` and ``prob_of``
    within it. The full window, outside of which every P(S = s), s >= 0, is
    exactly 0 in double precision, serves the rest: ``prob_of`` beyond it,
    ``window()``, ``sampler()``, ``support`` (the spins -N, -N+2, ..., N)
    and ``probs`` (their probabilities, zeros outside the window).
    """

    def __init__(self, coupling, n):
        self.coupling, self.n, self._windows = coupling, n, {}

    def _half(self, reach):
        if reach not in self._windows:
            self._windows[reach] = _gibbs_half(self.coupling, self.n, reach)
        return self._windows[reach]

    def window(self):
        """Spins and probabilities of the full window on both sides of zero,
        in ascending s: the law where its mass can show in a double."""
        lo, half = self._half(WINDOW_NATS)
        s = lo + 2 * np.arange(half.size)
        right = slice(1, None) if lo == 0 else slice(None)
        return (np.concatenate([-s[::-1], s[right]]),
                np.concatenate([half[::-1], half[right]]))

    @cached_property
    def support(self):
        return 2 * np.arange(self.n + 1) - self.n

    @cached_property
    def probs(self):
        spins, mass = self.window()
        probs = np.zeros(self.n + 1)
        probs[(spins + self.n) // 2] = mass
        return probs

    def prob_of(self, s):
        k = _yes_count(s, self.n)
        if k is None:
            return 0.0
        lo, half = self._half(MOMENT_NATS)
        i = (abs(2 * k - self.n) - lo) // 2
        if i >= half.size:
            half = self._half(WINDOW_NATS)[1]
        return float(half[i]) if 0 <= i < half.size else 0.0

    def abs_moment(self, power=1):
        """E|S|^power, power 1 or 2, from the moment window."""
        _check_power(power)
        lo, half = self._half(MOMENT_NATS)
        terms = (lo + 2.0 * np.arange(half.size)) ** power * half
        # each s > 0 stands for +-s; s = 0 only for itself
        return float(2.0 * terms.sum() - (terms[0] if lo == 0 else 0.0))

    def sampler(self):
        """``draw(gen, size)`` of S by its full window's guide table (``totals_sampler``)."""
        lo, half = self._half(WINDOW_NATS)
        h = half.size
        cdf = np.empty(2 * h - (lo == 0))
        cdf[:h] = half[::-1]
        cdf[h:] = half[1:] if lo == 0 else half
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        buckets, table = _guide_table(cdf, half.max())
        # index i holds spin 2i - shift, past the middle plus gap when lo > 1
        shift, gap = 2 * (h - 1) + lo, 2 * lo - 2

        def draw(gen, size):
            u = gen.random(size)
            idx = table[(u * buckets).astype(np.intp)]
            # at idx = -1 the comparison reads cdf[-1] = 1 > u and adds 0
            idx += cdf[idx] <= u
            ambiguous = idx < 0
            if ambiguous.any():
                idx[ambiguous] = cdf.searchsorted(u[ambiguous], side="right")
            spins = 2 * idx.astype(np.int64) - shift
            if gap > 0:
                spins[idx >= h] += gap
            return spins

        return draw


def magnetization_pmf(coupling, n):
    """Exact mean-field law of S: P(S=s) proportional to
    binomial(n, (n+s)/2) * exp(J s^2 / (2(n-1))). Its windows are built on
    first read, so this call builds none."""
    if not coupling >= 0.0:  # written to fail on NaN, which compares false
        raise ValueError("coupling must be >= 0")
    n = check_population(n)
    if n < 2:
        raise ValueError("magnetization pmf needs n >= 2")
    _check_log_weights(coupling, n)
    return MagnetizationPmf(coupling, n)


def _gibbs_half(coupling, n, reach):
    """``(lo, half)`` of the mean-field law of S on s >= 0, from the near
    edge ``WINDOW_NATS`` below the peak (toward s = 0) to the far edge
    ``reach`` nats below it.

    The half line is scanned outward from the peak (``_window_edges``) on a
    stride of floor(sqrt(n)) in k = (n+s)/2 with ``_meanfield_log_weights``,
    whose rounding only moves the edges. The window runs between the
    neighbours of the coarse nodes within those depths: the log-weight is
    unimodal on the half line, so it falls further beyond both. Inside, the
    log-weights are a cumulative sum, taken in place, of the per-step
    increments log((n-k+1)/k) + J (4 s_k - 4) / (2(n-1)) from the near edge,
    so no large terms cancel, and a window's unnormalized masses are a
    prefix of those of any wider one, bit for bit. The window holds
    O(sqrt(n)) points, O(n^(3/4)) at J = 1 (Ellis and Newman 1978), and its
    moments agree with 30-digit sums to about 1e-14 relative.

    ``MOMENT_NATS`` = 100 bounds what the moment window cuts. Each of the at
    most n + 1 cut spins has weight w < e^-100 against the peak's 1, so the
    cut moves the sums of w and of |s|^p w, p <= 2, by at most (n + 1)
    e^-100 and (n + 1) n^2 e^-100, while they are at least 1 and 2 (the
    peak pair +-s*, or at s* = 0 the pair +-2, of weight >= n/(n + 2)). So
    E|S|, E S^2 and P(S = 0) move by at most (n + 1)(n^2/2 + 1) e^-100
    relative: 1.9e-17 at n = 1e9, under half an ulp (1.1e-16), which needs
    98.2 nats there.
    """
    first, last = _window_edges(coupling, n, reach)
    k = np.arange(first + 1, last + 1, dtype=float)
    half = np.zeros(k.size + 1)
    # the increments in place, from 4 (2k - n) - 4 = -4 (n + 1 - 2k), whose
    # integers are exact below 2^53
    scratch = np.arange(8.0 * first + 4 - 4 * n, 8.0 * last + 4 - 4 * n, 8.0)
    step = np.divide(scratch, -4.0, out=half[1:])
    np.log1p(np.divide(step, k, out=step), out=step)
    scratch *= coupling
    step += np.divide(scratch, 2.0 * (n - 1), out=scratch)
    np.cumsum(step, out=step)
    half -= half.max()
    np.exp(half, out=half)
    lo = 2 * first - n
    half /= 2.0 * half.sum() - (half[0] if lo == 0 else 0.0)
    return lo, half


def _window_edges(coupling, n, reach):
    """The yes-counts (first, last) at the ends of ``_gibbs_half``'s window,
    from a run of stride nodes around the peak's (the first for J <= 1, else
    that of m = tanh(J m n/(n - 1)), which Newton steps from m = 1 descend
    onto), grown until its ends lie below the two depths. The log-weight is
    unimodal, so the run gives the edges of a scan of every node."""
    stride = math.isqrt(n)
    # the stride nodes from the middle count on, the last one moved to n
    nodes = np.arange((n + 1) // 2, n + stride, stride)
    nodes[-1] = n
    m, a = 0.0, coupling * n / (n - 1)
    if coupling > 1.0:
        m, move = 1.0, 1.0
        while abs(move) * n >= stride:
            t = math.tanh(a * m)
            move = (t - m) / (a * (1.0 - t * t) - 1.0)
            m -= move
    start = min(max(round((n * m / 2.0 - n % 2 / 2.0) / stride), 0), nodes.size - 1)
    # the first run reaches depth d by twice the curvature at the peak, or by
    # the quartic law where that is 0, and half as far again toward s = 0
    q = 1.0 - m * m
    curvature = max(2.0 * abs(1.0 - a * q), 1e-300)
    width = lambda d: 3 + int(min(math.sqrt(d * q / curvature), (12.0 * d * n) ** 0.25 / 2.0))
    begin, end = max(start - 3 * width(WINDOW_NATS) // 2, 0), min(start + width(reach), nodes.size)
    while True:
        # a list: these few log-weights are cheaper in Python than in numpy
        coarse = _meanfield_log_weights(coupling, n, nodes[begin:end]).tolist()
        top = max(coarse)
        grow_near = begin > 0 and coarse[0] >= top - WINDOW_NATS
        grow_far = end < nodes.size and coarse[-1] >= top - reach
        if not (grow_near or grow_far):
            break
        run = end - begin
        begin, end = max(begin - run * grow_near, 0), min(end + run * grow_far, nodes.size)
    peak = coarse.index(top)
    near = begin + peak - sum(v >= top - WINDOW_NATS for v in coarse[:peak])
    far = begin + peak + sum(v >= top - reach for v in coarse[peak:]) - 1
    return int(nodes[max(near - 1, 0)]), int(nodes[min(far + 1, nodes.size - 1)])


def _cdf_drop(k, m, p0, p1):
    """F(k; p0) - F(k; p1) for the Binomial(m, p) cdf F and p0 < p1, at
    ascending k. Where F(k; p1) is above about 1/2 both terms are, and the
    drop is taken as sf(k; p1) - sf(k; p0), so that it does not cancel."""
    split = np.searchsorted(k, m * p1)
    low, high = k[:split], k[split:]
    return np.concatenate([_binom_cdf(low, m, p0) - _binom_cdf(low, m, p1),
                           _binom_sf(high, m, p1) - _binom_sf(high, m, p0)])


#: A cdf drop across a cell of width a cancels to about 1e-16/a relative, so
#: a cell narrower than this in z takes a fixed ``NARROW_CELL_NODES``-point
#: Gauss-Legendre rule on each piece of at most ``NARROW_PIECE_SDS`` binomial
#: standard deviations 1/sqrt(N); all three are calibrated against mpmath up
#: to N = 1e9 (README, "Numerical notes").
NARROW_CELL = 1e-3
NARROW_CELL_NODES = 16
NARROW_PIECE_SDS = 4.0


def _cell_count_mass(k, n, lo, hi, r0, r1):
    """The integral of rho(z) C(n, k) p^k (1 - p)^(n - k), p = (1 + z)/2,
    over the cell lo <= z <= hi on which the density runs linearly from r0
    to r1. In p the density is alpha + beta p, and the two Beta integrals
    are binomial cdf drops (DLMF 8.17): the row integrates to
    [F_(n+1)(k; p0) - F_(n+1)(k; p1)]/(n + 1), and p times it to
    (k + 1)/((n + 1)(n + 2)) [F_(n+2)(k + 1; p0) - F_(n+2)(k + 1; p1)].
    A cell narrower than ``NARROW_CELL`` sums the pmf over its rule instead,
    cut into equal pieces where it spans more than ``NARROW_PIECE_SDS``
    standard deviations (never at N <= 1e7)."""
    if hi - lo < NARROW_CELL:
        # one piece keeps the cell's own edges and densities, bit for bit
        edges = np.linspace(lo, hi, math.ceil((hi - lo) * math.sqrt(n) / NARROW_PIECE_SDS) + 1)
        rho = np.interp(edges, (lo, hi), (r0, r1))
        pieces = np.column_stack([edges[:-1], edges[1:], rho[:-1], rho[1:]])
        zs, ws = _cell_rule(pieces, NARROW_CELL_NODES)
        return sum(w * _binom_pmf(k, n, (1.0 + z) / 2.0) for z, w in zip(zs, ws))
    p0, p1 = (1.0 + lo) / 2.0, (1.0 + hi) / 2.0
    beta = (r1 - r0) / (p1 - p0)
    mass = (r0 - beta * p0) / (n + 1) * _cdf_drop(k, n + 1, p0, p1)
    if beta:
        mass += beta * (k + 1) / ((n + 1) * (n + 2)) * _cdf_drop(k + 1, n + 2, p0, p1)
    # dz = 2 dp
    return 2.0 * mass


def _common_belief_law(belief, n, k):
    """P(K = k) under a validated common belief, at ascending yes-counts k
    that the mirror k -> n - k maps onto themselves: all of 0..n, or the
    middle count n/2 alone. Atoms give a weighted sum of binomial rows, the
    point mass the fair row; a continuous belief sums the closed form of
    each half-line cell, h, and mirrors it, h + h[::-1]."""
    if isinstance(belief, ATOMIC):
        zs, ws = _atom_arrays(belief)
        return ws @ _binom_pmf(k, n, (1.0 + zs[:, None]) / 2.0)
    half = sum(_cell_count_mass(k, n, *cell) for cell in _half_line_cells(belief))
    return half + half[::-1]


def _is_gibbs(model, n):
    """Whether (model, n) has the mean-field Gibbs law, not a mixture's."""
    return isinstance(model, MeanField) and n > 1


@dataclass(frozen=True)
class MixtureLaw:
    """The law of S under the binomial mixture of n voters over a validated
    belief, read as a ``MagnetizationPmf`` is."""

    belief: object
    n: int

    def abs_moment(self, power=1):
        """E|S|, the belief average of the kernel E_p|2K - N|, p = (1 + z)/2,
        or E S^2 = N + N(N-1) E Z^2. A continuous belief's cells split at
        z = 12/sqrt(N): beyond, the kernel is N|z| to within e^-72 relative
        (Hoeffding), so they give N E|Z| in closed form; below, the rule
        takes the kernel once per node z >= 0, doubled by symmetry."""
        _check_power(power)
        n = self.n
        if power == 2:
            return n + n * (n - 1) * _abs_moment(self.belief, 2)
        kernel = lambda zs: binom_abs_moments(n, (1.0 + zs) / 2.0)
        if isinstance(self.belief, ATOMIC):
            return float(belief_expectation(self.belief, kernel))
        cut = 12.0 / math.sqrt(n)
        cells = _half_line_cells(self.belief, cut)
        bent = cells[:, 1] <= cut
        z, w = _cell_rule(cells[bent], QUAD_NODES)
        return float(2.0 * (w @ kernel(z)) + n * _abs_moment(self.belief, 1, cells[~bent]))

    def prob_of(self, s):
        """P(S = s), from the closed-form law of the yes-count at k and n - k."""
        k = _yes_count(s, self.n)
        if k is None:
            return 0.0
        ks = np.array(sorted({k, self.n - k}), dtype=float)
        return float(_common_belief_law(self.belief, self.n, ks)[0])

    def sampler(self):
        """``draw(gen, size)`` of S: a belief value Z, then Binomial(n, (1 + Z)/2)."""
        n = self.n
        # 2k - n in the int64 buffer of the binomial draws
        spins = lambda k: np.subtract(np.multiply(k, 2, out=k), n, out=k)
        if isinstance(self.belief, PointMassZero):
            # bit-identical to the mixture's draws, and faster with a scalar p
            return lambda gen, size: spins(gen.binomial(n, 0.5, size=size))
        draw_z = belief_sampler(self.belief)

        def draw(gen, size):
            p = draw_z(gen, size)
            p += 1.0
            p /= 2.0
            return spins(gen.binomial(n, p))

        return draw


def state_law(model, n):
    """The law of S for n voters, picked here alone: ``magnetization_pmf`` for
    the mean-field Gibbs law, else a ``MixtureLaw`` over a common belief's
    own or the point mass at zero (independent voters, one mean-field voter)."""
    validate_model(model)
    if _is_gibbs(model, n):
        return magnetization_pmf(model.coupling, n)
    return MixtureLaw(model.belief if isinstance(model, CommonBelief) else PointMassZero(), n)


def count_law(model, n):
    """Law of the yes-count K = (n + S)/2: P(K = k) for k = 0..n.

    A binomial mixture (see ``state_law``) gives its law in closed form,
    with no quadrature: binomial rows for atoms, and binomial cdf
    differences per cell for a uniform or gridded belief, whose density is
    piecewise linear. The mean-field Gibbs law comes from the definition,
    normalized over all n + 1 log-weights: meant for small n, and kept
    apart from the windowed ``magnetization_pmf``, which enumeration checks.
    """
    k = np.arange(n + 1, dtype=float)
    if not _is_gibbs(model, n):
        return _common_belief_law(state_law(model, n).belief, n, k)
    logw = _meanfield_log_weights(model.coupling, n)
    return np.exp(logw - _special().logsumexp(logw))


@lru_cache(maxsize=256)
def _enumeration_law(model, n):
    """``count_law`` of a validated model at n <= ENUMERATION_CAP, cached on
    the frozen (model, n) and read-only: enumeration asks for it once per
    outcome."""
    law = count_law(model, n)
    law.flags.writeable = False
    return law


def pmf_exact(model, outcome):
    """Probability of one exact outcome under the model: the measures are
    exchangeable, so the C(N, k) outcomes with k yes-votes share P(K = k).

    Guarded at N <= 24 so that the normalization promise (the 2^N outcome
    probabilities sum to 1) stays checkable by enumeration.
    """
    validate_model(model)
    votes = as_outcome(outcome)
    n = votes.size
    if n > ENUMERATION_CAP:
        raise ValueError(f"exact pmf is limited to N <= {ENUMERATION_CAP}, got {n}")
    k = (int(votes.sum(dtype=np.int64)) + n) // 2
    return float(_enumeration_law(model, n)[k] / math.comb(n, k))


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------


def belief_sampler(belief):
    """A sampler ``draw(gen, size)`` of belief values Z ~ mu; the belief is
    validated and a grid's cell cdf built here, once."""
    validate_belief(belief)
    if isinstance(belief, PointMassZero):
        return lambda gen, size: np.zeros(size)
    if isinstance(belief, UniformSymmetric):
        return lambda gen, size: gen.uniform(-belief.a, belief.a, size)
    if isinstance(belief, DiscreteSymmetric):
        zs, ws = _atom_arrays(belief)
        p = ws / ws.sum()
        return lambda gen, size: gen.choice(zs, p=p, size=size)
    # gridded: piecewise-linear density, sampled by inverse CDF per cell
    nodes = np.array(belief.nodes)
    dens = np.array(belief.densities)
    widths = np.diff(nodes)
    cell_mass = widths * (dens[:-1] + dens[1:]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cum /= cum[-1]
    # per cell: t in [0, 1] solves d0 t + (d1 - d0) t^2/2 = r, or t = r if flat
    d0, d1, slope = dens[:-1], dens[1:], np.diff(dens)
    d0_sq, bend = d0**2, slope * (2.0 * ((d0 + d1) / 2.0))
    curved = np.abs(slope) > 1e-12 * np.maximum(d0, d1)
    divisor = np.where(slope == 0, 1.0, slope)
    safe_mass = np.where(cell_mass > 0, cell_mass, 1.0)

    def draw(gen, size):
        u = gen.random(size)
        cell = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, widths.size - 1)
        r = (u - cum[cell]) / safe_mass[cell]
        disc = np.sqrt(np.maximum(d0_sq[cell] + bend[cell] * r, 0.0))
        t = np.where(curved[cell], (disc - d0[cell]) / divisor[cell], r)
        t = np.clip(t, 0.0, 1.0)
        return nodes[cell] + t * widths[cell]

    return draw


def sample_belief(belief, gen, size):
    """Draw belief values Z ~ mu."""
    return belief_sampler(belief)(gen, size)


#: Cap on the guide table's bucket count, a power of two: 256 KB of int32.
GUIDE_MAX_BUCKETS = 2**16
#: cdf values that ``_guide_table`` bins at a time: 16 MB of temporaries.
GUIDE_CHUNK = 2**20


def _guide_table(cdf, peak):
    """Guide table (Chen and Asau 1974; Devroye 1986, III.2.4) over an
    ascending cdf that ends at 1: ``table[j]`` is #(cdf <= j/m), the count
    below the bucket [j/m, (j+1)/m), or -1 where two or more cdf values lie
    in (j/m, (j+1)/m]. For every u in a bucket with at most one such value,
    ``cdf.searchsorted(u, side="right")`` is ``table[j] + (cdf[table[j]] <=
    u)``: an empty bucket's next cdf value lies above it, so the comparison
    adds 0. m is 16/peak rounded up to a power of two, so that the atom of
    largest mass ``peak`` spans about 16 buckets, and capped at
    ``GUIDE_MAX_BUCKETS``; peak <= 1 keeps m >= 16.

    With m a power of two, u * m and cdf * m are exact for doubles in
    [0, 1], so every bucket edge compares exactly. ``bincount`` of
    ceil(cdf * m) counts the cdf values in each ((i-1)/m, i/m], and its
    cumulative sum at j is #(cdf <= j/m): O(len(cdf) + m), no search."""
    buckets = min(2 ** math.ceil(math.log2(16 / peak)), GUIDE_MAX_BUCKETS)
    counts = sum(np.bincount(np.ceil(cdf[i : i + GUIDE_CHUNK] * buckets).astype(np.intp),
                             minlength=buckets + 1) for i in range(0, cdf.size, GUIDE_CHUNK))
    table = np.cumsum(counts[:buckets], dtype=np.int32)
    table[counts[1 : buckets + 1] > 1] = -1
    return buckets, table


def totals_sampler(model, n):
    """A sampler ``draw(gen, size)`` of total spins S = sum of votes.

    Everything that depends only on (model, n) is built once, by the
    ``sampler()`` of its ``state_law``: a mixture's belief sampler, and for
    the mean-field Gibbs law the cdf of the window with its guide table, all
    it keeps: a drawn index maps to its spin by arithmetic. A command builds
    each state's sampler once. The cdf is the cumulative sum that
    ``gen.choice(support, p=probs)`` forms; the zeros outside the window add
    exactly, so it equals that of the full law wherever it rises. Each draw
    takes one u = ``gen.random()`` and returns the spin at
    ``cdf.searchsorted(u, side="right")``, as ``gen.choice`` does: the guide
    table gives that index in one lookup and one comparison, and only a u in
    a bucket that two or more cdf values split is searched. u is a multiple
    of 2^-53 and the bucket count a power of two, so the bucket of u is
    exact and the draws are bit-identical to ``gen.choice``. The table is
    int32 and capped at ``GUIDE_MAX_BUCKETS`` = 2^16 entries, 256 KB per
    sampler.
    """
    check_population(n)
    return state_law(model, n).sampler()


def _totals_with_generator(model, n, size, gen):
    """Vectorized draws of the total spin S = sum of votes."""
    return totals_sampler(model, n)(gen, size)


def sample_totals(model, n, size, rng):
    """Total spins of ``size`` independent outcomes drawn from the model."""
    return _totals_with_generator(model, n, size, rng.generator())


def sample(model, n, rng):
    """Draw one full outcome from the model: the one row of
    ``sample_outcomes(model, n, 1, rng)``."""
    return sample_outcomes(model, n, 1, rng)[0]


def sample_outcomes(model, n, size, rng):
    """Matrix of ``size`` outcomes (rows of spins), vectorized for small n; a
    mean-field row puts its total's yes-votes on a uniformly random subset."""
    n = check_population(n)
    gen = rng.generator()
    if isinstance(model, Independent):
        return (2 * gen.integers(0, 2, size=(size, n), dtype=np.int8) - 1).astype(np.int8)
    if isinstance(model, CommonBelief):
        zs = sample_belief(model.belief, gen, size)
        yes = gen.random((size, n)) < ((1.0 + zs) / 2.0)[:, None]
        return np.where(yes, 1, -1).astype(np.int8)
    totals = _totals_with_generator(model, n, size, gen)
    ranks = np.argsort(gen.random((size, n)), axis=1)
    counts = ((totals + n) // 2)[:, None]
    return np.where(ranks < counts, 1, -1).astype(np.int8)
