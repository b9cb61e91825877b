"""Voting measures: constructors, exact pmfs for small N, and samplers.

Three families are implemented, all invariant under a global sign flip of
the votes:

* independent fair voters,
* the common-belief mixture (draw Z ~ mu on [-1, 1], then independent votes
  with yes-probability (1 + Z)/2),
* the mean-field (Curie-Weiss) Gibbs measure with weight
  exp(J S^2 / (2 (N-1))) in the total spin S.

Continuous belief measures are integrated by Gauss-Legendre quadrature with
node doubling; a gridded density is the piecewise-linear density through
its nodes, integrated cell by cell. ``totals_sampler`` builds a total-spin
sampler once per (model, N); Monte Carlo callers draw every worker
substream's chunk from it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .core import (
    ENUMERATION_CAP,
    CommonBelief,
    Independent,
    MeanField,
    as_outcome,
)

MASS_TOL = 1e-12
QUAD_START_NODES = 64
QUAD_MAX_NODES = 4096
QUAD_REL_TOL = 1e-10


# --------------------------------------------------------------------------
# belief distributions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMassZero:
    """All mass at zero belief; the induced voters are independent."""


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


def validate_belief(belief):
    """Check total mass, symmetry, and support of a belief distribution."""
    if isinstance(belief, (PointMassZero, UniformSymmetric)):
        return belief
    if isinstance(belief, DiscreteSymmetric):
        atoms = belief.atoms
        if not atoms:
            raise ValueError("discrete belief needs at least one atom")
        zs = np.array([z for z, _ in atoms])
        ws = np.array([w for _, w in atoms])
        if np.any(np.abs(zs) > 1.0):
            raise ValueError("belief atoms must lie in [-1, 1]")
        if np.any(ws < 0.0):
            raise ValueError("atom weights must be >= 0")
        if abs(ws.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"atom weights sum to {ws.sum()!r}, not 1")
        weight_of = {}
        for z, w in atoms:
            weight_of[z] = weight_of.get(z, 0.0) + w
        for z, w in weight_of.items():
            if z == 0.0:
                continue
            if abs(weight_of.get(-z, math.nan) - w) > MASS_TOL or math.isnan(weight_of.get(-z, math.nan)):
                raise ValueError(f"atom at {z} lacks a mirror of equal weight")
        return belief
    if isinstance(belief, GriddedDensity):
        nodes = np.array(belief.nodes)
        dens = np.array(belief.densities)
        if nodes.size != dens.size or nodes.size < 2:
            raise ValueError("gridded belief needs matching nodes/densities of length >= 2")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly ascending")
        if nodes[0] < -1.0 or nodes[-1] > 1.0:
            raise ValueError("grid nodes must lie in [-1, 1]")
        if np.any(dens < 0.0):
            raise ValueError("densities must be >= 0")
        if np.max(np.abs(nodes + nodes[::-1])) > MASS_TOL:
            raise ValueError("grid nodes must be symmetric about 0")
        if np.max(np.abs(dens - dens[::-1])) > MASS_TOL:
            raise ValueError("densities must be symmetric about 0")
        mass = np.trapezoid(dens, nodes)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"gridded density integrates to {mass!r}, not 1")
        return belief
    raise TypeError(f"not a belief distribution: {belief!r}")


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

_leggauss_cache = {}


def _leggauss(n):
    if n not in _leggauss_cache:
        from scipy.special import roots_legendre

        _leggauss_cache[n] = roots_legendre(n)
    return _leggauss_cache[n]


def _half_line_cells(belief):
    """Rows (lower edge, width, density at both ends) of the cells of a
    continuous belief on z >= 0: one flat cell for a uniform belief, and
    the piecewise-linear density through a grid's nodes, split at zero."""
    if isinstance(belief, UniformSymmetric):
        return np.array([[0.0, belief.a, 0.5 / belief.a, 0.5 / belief.a]])
    nodes = np.array(belief.nodes)
    edges = np.union1d(0.0, nodes[nodes > 0.0])
    rho = np.interp(edges, nodes, belief.densities)
    return np.column_stack([edges[:-1], np.diff(edges), rho[:-1], rho[1:]])


def belief_expectation(belief, f, rel_tol=QUAD_REL_TOL):
    """Integrate a (possibly vector-valued) function of zeta against mu.

    ``f`` takes an array of zeta values and returns an array whose leading
    axis matches it. Atomic measures are summed exactly; uniform and
    gridded ones use Gauss-Legendre on the cells of their piecewise-linear
    density, nodes spread by cell width and doubled until successive counts
    agree to ``rel_tol``.

    Because mu is symmetric, the rule integrates the symmetrized integrand
    f(z) + f(-z) over z >= 0: the expectation is unchanged and the node
    placement resolves the 1/sqrt(N) feature that margin-type integrands
    develop at z = 0.
    """
    validate_belief(belief)
    if isinstance(belief, PointMassZero):
        return np.sum(f(np.array([0.0])), axis=0)
    if isinstance(belief, DiscreteSymmetric):
        zs = np.array([z for z, _ in belief.atoms])
        ws = np.array([w for _, w in belief.atoms])
        return np.tensordot(ws, f(zs), axes=(0, 0))
    cells = _half_line_cells(belief)
    span = cells[:, 1].sum()
    prev = None
    n = QUAD_START_NODES
    while True:
        zs, ws = [], []
        for lo, width, r0, r1 in cells:
            x, w = _leggauss(math.ceil(n * width / span))
            t = (x + 1.0) / 2.0
            zs.append(lo + width * t)
            # weights w * width/2 (Jacobian) * the linear density on the cell
            ws.append(w * width / 2.0 * (r0 + (r1 - r0) * t))
        z = np.concatenate(zs)
        cur = np.tensordot(np.concatenate(ws), f(z) + f(-z), axes=(0, 0))
        if prev is not None:
            err = np.max(np.abs(cur - prev))
            if err <= rel_tol * max(1.0, float(np.max(np.abs(cur)))):
                return cur
        if n >= QUAD_MAX_NODES:
            return cur
        prev = cur
        n *= 2


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
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _meanfield_log_weights(coupling, n):
    """Log of binomial(n, k) * exp(J s^2 / (2(n-1))) over k = 0..n; the
    log-binomial comes from one gammaln pass, lg[n] - lg[k] - lg[n - k]."""
    lg = gammaln(np.arange(n + 1) + 1.0)
    s = 2.0 * np.arange(n + 1) - n
    return lg[n] - lg - lg[::-1] + coupling * s**2 / (2.0 * (n - 1))


@dataclass(frozen=True)
class MagnetizationPmf:
    """Exact law of the total spin S under a symmetric voting measure.

    ``support`` holds the attainable spins -N, -N+2, ..., N and ``probs``
    the matching probabilities (summing to 1, symmetric in s -> -s).
    """

    n: int
    support: np.ndarray
    probs: np.ndarray

    def prob_of(self, s):
        idx = (int(s) + self.n) // 2
        if not 0 <= idx <= self.n or (int(s) + self.n) % 2:
            return 0.0
        return float(self.probs[idx])

    def abs_moment(self, power=1):
        return float(np.sum(np.abs(self.support.astype(float)) ** power * self.probs))


def magnetization_pmf(coupling, n):
    """Exact mean-field law of S: P(S=s) proportional to
    binomial(n, (n+s)/2) * exp(J s^2 / (2(n-1))), normalized in log space."""
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    if n < 2:
        raise ValueError("magnetization pmf needs n >= 2")
    probs = _meanfield_log_weights(coupling, n)
    probs -= logsumexp(probs)
    np.exp(probs, out=probs)
    support = 2 * np.arange(n + 1) - n
    return MagnetizationPmf(n=n, support=support, probs=probs)


def pmf_exact(model, outcome, max_population=ENUMERATION_CAP):
    """Probability of one exact outcome under the model.

    Guarded at N <= 24 so that the normalization promise (the 2^N outcome
    probabilities sum to 1) stays checkable by enumeration.
    """
    validate_model(model)
    votes = as_outcome(outcome)
    n = votes.size
    if n > max_population:
        raise ValueError(f"exact pmf is limited to N <= {max_population}, got {n}")
    if isinstance(model, Independent):
        return 0.5**n
    if isinstance(model, CommonBelief):
        k = (int(votes.sum(dtype=np.int64)) + n) // 2

        def mass(zs):
            p = (1.0 + zs) / 2.0
            return np.power(p, k) * np.power(1.0 - p, n - k)

        return float(belief_expectation(model.belief, mass))
    # mean field; a single voter has no pair interaction
    if n == 1:
        return 0.5
    s = float(votes.sum(dtype=np.int64))
    logw = model.coupling * s**2 / (2.0 * (n - 1))
    logz = logsumexp(_meanfield_log_weights(model.coupling, n))
    # divide the magnetization weight among the binomial(n, k) outcomes sharing s
    return float(np.exp(logw - logz))


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------


def sample_belief(belief, gen, size):
    """Draw belief values Z ~ mu."""
    validate_belief(belief)
    if isinstance(belief, PointMassZero):
        return np.zeros(size)
    if isinstance(belief, UniformSymmetric):
        return gen.uniform(-belief.a, belief.a, size)
    if isinstance(belief, DiscreteSymmetric):
        zs = np.array([z for z, _ in belief.atoms])
        ws = np.array([w for _, w in belief.atoms])
        return gen.choice(zs, p=ws / ws.sum(), size=size)
    # gridded: piecewise-linear density, sampled by inverse CDF per cell
    nodes = np.array(belief.nodes)
    dens = np.array(belief.densities)
    widths = np.diff(nodes)
    cell_mass = widths * (dens[:-1] + dens[1:]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cum /= cum[-1]
    u = gen.random(size)
    cell = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, widths.size - 1)
    # within cell: solve d0*t + (d1-d0)*t^2/2 = r for t in [0, 1]
    r = (u - cum[cell]) / np.where(cell_mass[cell] > 0, cell_mass[cell], 1.0)
    d0 = dens[cell]
    d1 = dens[cell + 1]
    avg = (d0 + d1) / 2.0
    slope = d1 - d0
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = np.sqrt(np.maximum(d0**2 + slope * (2.0 * avg) * r, 0.0))
        t = np.where(np.abs(slope) > 1e-12 * np.maximum(d0, d1), (disc - d0) / np.where(slope == 0, 1.0, slope), r)
    t = np.clip(t, 0.0, 1.0)
    return nodes[cell] + t * widths[cell]


def totals_sampler(model, n):
    """A sampler ``draw(gen, size)`` of total spins S = sum of votes.

    Everything that depends only on (model, n) is built here, once: for the
    mean field that is the cdf of the magnetization law, inverted by the
    same cumsum/searchsorted steps as ``gen.choice(support, p=probs)``, so
    the draws are bit-identical to it without re-checking the O(N) law on
    every call.
    """
    validate_model(model)
    if n < 1:
        raise ValueError("population must be >= 1")
    if isinstance(model, CommonBelief):
        def draw(gen, size):
            zs = sample_belief(model.belief, gen, size)
            return 2 * gen.binomial(n, (1.0 + zs) / 2.0).astype(np.int64) - n

        return draw
    if isinstance(model, Independent) or n == 1:
        # a single mean-field voter has no pair interaction
        return lambda gen, size: 2 * gen.binomial(n, 0.5, size=size).astype(np.int64) - n
    cdf = np.cumsum(magnetization_pmf(model.coupling, n).probs)
    cdf /= cdf[-1]
    return lambda gen, size: 2 * cdf.searchsorted(gen.random(size), side="right") - n


def _totals_with_generator(model, n, size, gen):
    """Vectorized draws of the total spin S = sum of votes."""
    return totals_sampler(model, n)(gen, size)


def sample_totals(model, n, size, rng):
    """Total spins of ``size`` independent outcomes drawn from the model."""
    return _totals_with_generator(model, n, size, rng.generator())


def sample(model, n, rng):
    """Draw one full outcome from the model.

    Every implemented measure is exchangeable, so the outcome is generated
    by drawing the total spin and then placing the yes-votes on a uniformly
    random subset of voters.
    """
    gen = rng.generator()
    if isinstance(model, Independent):
        return (2 * gen.integers(0, 2, size=n, dtype=np.int8) - 1).astype(np.int8)
    if isinstance(model, CommonBelief):
        validate_belief(model.belief)
        z = float(sample_belief(model.belief, gen, 1)[0])
        yes = gen.random(n) < (1.0 + z) / 2.0
        return np.where(yes, 1, -1).astype(np.int8)
    s = int(_totals_with_generator(model, n, 1, gen)[0])
    votes = np.full(n, -1, dtype=np.int8)
    votes[gen.permutation(n)[: (n + s) // 2]] = 1
    return votes


def sample_outcomes(model, n, size, rng):
    """Matrix of ``size`` outcomes (rows of spins), vectorized for small n."""
    gen = rng.generator()
    if isinstance(model, Independent):
        return (2 * gen.integers(0, 2, size=(size, n), dtype=np.int8) - 1).astype(np.int8)
    if isinstance(model, CommonBelief):
        validate_belief(model.belief)
        zs = sample_belief(model.belief, gen, size)
        yes = gen.random((size, n)) < ((1.0 + zs) / 2.0)[:, None]
        return np.where(yes, 1, -1).astype(np.int8)
    totals = _totals_with_generator(model, n, size, gen)
    ranks = np.argsort(gen.random((size, n)), axis=1)
    counts = ((totals + n) // 2)[:, None]
    return np.where(ranks < counts, 1, -1).astype(np.int8)
