"""Fair council weights and the democracy deficit.

The deficit Delta(w) = E[(P - C)^2] measures how far the weighted council
result C = sum_v w_v chi(S_v) strays from the popular vote sum P. With
states independent of each other and every per-state measure symmetric,
expanding the square gives

    Delta(w) = sum_v E(S_v^2) - 2 sum_v w_v E|S_v| + sum_v w_v^2
               + sum_{v != u} w_v w_u P(S_v = 0) P(S_u = 0),

because S chi(S) = |S| pointwise and E chi(S) = -P(S = 0) under the
ties-vote-no convention. The deficit is therefore quadratic in each weight
with vertex at the state's full expected margin E|S_v| (exactly, whenever
at most one state can tie); that expected margin is the fair weight. The
frequently quoted half-margin variant is not a minimizer: direct
enumeration shows the deficit still decreasing there, and a single-voter
state makes it obvious (w = E|S| = 1 gives zero deficit, w = 1/2 does not).

The expansion needs three numbers per state: ``council_moments`` reads them
from one ``measures.state_law`` per state into a ``MomentTable``, whose
margins are the optimal weights and on which every semi-exact route
evaluates its closed form.
The exact route enumerates the product of the states' yes-count laws, reading
one ``count_law`` per state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .core import (
    EXACT,
    MONTE_CARLO,
    check_population,
    pooled_mean,
    signs,
)
from .measures import _enumeration_law, state_law, totals_sampler, validate_model

SEMI_EXACT = "semi_exact"

#: Exact deficits enumerate the product of per-state outcome spaces.
EXACT_POPULATION_CAP = 20


# --------------------------------------------------------------------------
# council specification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpec:
    name: str
    population: int
    model: object

    def __post_init__(self):
        try:
            check_population(self.population)
        except ValueError as err:
            raise ValueError(f"state {self.name!r}: {err}") from None
        validate_model(self.model)


@dataclass(frozen=True)
class CouncilSpec:
    """States with their populations and correlation models, plus the
    council quota. quota = 0.5 denotes the simple-majority limit (accept
    only strictly positive weighted sums)."""

    states: tuple
    quota: float = 0.5

    def __init__(self, states, quota=0.5):
        states = tuple(
            s if isinstance(s, StateSpec) else StateSpec(*s) for s in states
        )
        if not states:
            raise ValueError("council needs at least one state")
        names = [s.name for s in states]
        if len(set(names)) != len(names):
            raise ValueError("state names must be unique")
        if not 0.0 < quota < 1.0:
            raise ValueError(f"quota must lie in (0, 1), got {quota}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "quota", float(quota))

    @property
    def total_population(self):
        return sum(s.population for s in self.states)

    @property
    def size(self):
        return len(self.states)


@dataclass(frozen=True)
class WeightVector:
    """Raw fair weights (one per state, aligned with the council order) and
    their max-normalized copy, computed for display. The induced voting
    system is invariant under positive scaling, but the deficit is minimized
    at the raw values only."""

    values: tuple
    normalized: tuple
    margins: tuple = ()

    def __init__(self, values, margins=()):
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("weight vector must be non-empty")
        if any(not math.isfinite(v) or v < 0.0 for v in values):
            raise ValueError("weights must be finite and >= 0")
        top = max(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "normalized", tuple(v / top for v in values) if top > 0 else values)
        object.__setattr__(self, "margins", tuple(margins))


@dataclass(frozen=True)
class DeltaEstimate:
    """A value of the democracy deficit with its evaluation route."""

    value: float
    method: str
    std_error: float = 0.0
    trials: int = 0

    def __post_init__(self):
        if self.method not in (EXACT, SEMI_EXACT, MONTE_CARLO):
            raise ValueError(f"unknown deficit method {self.method!r}")
        if self.value < 0.0:
            raise ValueError(f"deficit must be >= 0, got {self.value}")
        if self.method != MONTE_CARLO and self.std_error != 0.0:
            raise ValueError(f"{self.method} deficits must have std_error 0")


def _as_weights(weights, council):
    if isinstance(weights, WeightVector):
        arr = np.asarray(weights.values, dtype=float)
    else:
        arr = np.asarray(weights, dtype=float)
    if arr.shape != (council.size,):
        raise ValueError(f"expected {council.size} weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    return arr


# --------------------------------------------------------------------------
# per-state moments
# --------------------------------------------------------------------------


def state_margin(state):
    """Exact E|S| for one state; beyond the exact-route budget it raises."""
    return estimators.expected_margin_exact(state.model, state.population)


def _checked_law(state):
    """The state's ``state_law``, once the exact route takes it."""
    estimators.check_exact_route(state.model, state.population)
    return state_law(state.model, state.population)


def state_second_moment(state):
    """Exact E(S^2), read from the state's checked law."""
    return _checked_law(state).abs_moment(power=2)


def state_tie_probability(state):
    """P(S = 0), read from the state's law; zero for odd populations, once
    the exact route takes the state."""
    model, n = state.model, state.population
    estimators.check_exact_route(model, n)
    return 0.0 if n % 2 else state_law(model, n).prob_of(0)


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Every state's E|S|, E(S^2) and P(S = 0), in council order: all that
    the semi-exact deficit and its minimizer along a ray read."""

    margins: np.ndarray
    seconds: np.ndarray
    ties: np.ndarray

    def _tie_cross(self, w):
        wt = w * self.ties
        return float(np.sum(wt) ** 2 - np.sum(wt**2))

    def deficit(self, weights):
        """Delta(w) from the expansion in the module docstring."""
        w = np.asarray(weights, dtype=float)
        value = float(self.seconds.sum() - 2.0 * np.dot(w, self.margins) + np.dot(w, w)
                      + self._tie_cross(w))
        if value < -1e-9:
            raise ArithmeticError(f"semi-exact deficit came out negative: {value}")
        return DeltaEstimate(value=max(value, 0.0), method=SEMI_EXACT)

    def ray_scale(self, direction):
        u = np.asarray(direction, dtype=float)
        denom = float(np.dot(u, u)) + self._tie_cross(u)
        if denom <= 0.0:
            raise ValueError("direction must be a nonzero weight vector")
        return float(np.dot(u, self.margins)) / denom


def _state_moments(state):
    """(E|S|, E(S^2), P(S = 0)) of one state, all three from one law."""
    law = _checked_law(state)
    return law.abs_moment(), law.abs_moment(power=2), law.prob_of(0)


def council_moments(council):
    """The council's moment table, each state's moments computed once;
    a state beyond the exact-route budget raises as in ``state_margin``."""
    rows = [_state_moments(s) for s in council.states]
    return MomentTable(*(np.array(col) for col in zip(*rows)))


# --------------------------------------------------------------------------
# optimal weights
# --------------------------------------------------------------------------


def optimal_weights(council):
    """Mean-square-optimal weights: each state's exact expected margin E|S|.

    The deficit is quadratic in each weight with vertex at E|S_v| (see the
    module docstring), so these weights minimize it exactly whenever at
    most one state has an even population; residual tie correlations shift
    the optimum by O(P(tie)^2) otherwise. A state beyond the exact-route
    budget raises as in ``state_margin``.
    """
    margins = tuple(state_margin(s) for s in council.states)
    return WeightVector(values=[m.value for m in margins], margins=margins)


# --------------------------------------------------------------------------
# deficit evaluation
# --------------------------------------------------------------------------


def _delta_exact(council, weights):
    if council.total_population > EXACT_POPULATION_CAP:
        raise ValueError(
            f"exact deficit enumerates 2^{council.total_population} outcomes; "
            f"cap is total population {EXACT_POPULATION_CAP}"
        )
    probs = np.array([1.0])
    popular = np.array([0.0])
    council_sum = np.array([0.0])
    for state, w in zip(council.states, weights):
        # aggregate the state's 2^N outcomes by their yes-count k
        n = state.population
        s = 2 * np.arange(n + 1) - n
        probs = (probs[:, None] * _enumeration_law(state.model, n)[None, :]).ravel()
        popular = (popular[:, None] + s[None, :]).ravel()
        council_sum = (council_sum[:, None] + w * signs(s)[None, :]).ravel()
    value = float(np.sum(probs * (popular - council_sum) ** 2))
    return DeltaEstimate(value=max(value, 0.0), method=EXACT)


def _state_samplers(council):
    """Each state's ``totals_sampler``, in council order."""
    return [totals_sampler(s.model, s.population) for s in council.states]


def _council_trials(council, w, trials, rng, workers, samplers=None):
    """The council's Monte Carlo trials, pooled by ``core.pooled_mean``.
    Each state's sampler is built once, or passed in; every worker substream
    draws the states in council order, so fixed (seed, workers) reproduces
    every number. Returns the deficit estimate, the number of trials whose
    council decision disagrees with the popular vote, the summed popular
    margin |P| and the per-state counts of delegate yes votes."""
    samplers = samplers or _state_samplers(council)
    threshold = (2.0 * council.quota - 1.0) * float(w.sum())
    disagree = 0
    margin_sum = 0.0
    yes_counts = np.zeros(council.size, dtype=np.int64)

    def gaps_squared(gen, size):
        nonlocal disagree, margin_sum
        popular = np.zeros(size)
        council_sum = np.zeros(size)
        # the yes and no sides' weights, summed apart in council order as
        # council.council_decision sums them: at quota 1/2 a tie rejects,
        # and rounding can tip the sign of council_sum at an exact tie
        yes_sum, no_sum = np.zeros(size), np.zeros(size)
        for i, draw in enumerate(samplers):
            totals = draw(gen, size)
            xi = signs(totals)
            yes_counts[i] += int(np.count_nonzero(xi > 0))
            popular += totals
            votes = w[i] * xi
            council_sum += votes
            yes_sum += np.maximum(votes, 0.0)
            no_sum -= np.minimum(votes, 0.0)
        accept = yes_sum > no_sum if council.quota == 0.5 else council_sum >= threshold
        disagree += int(np.count_nonzero(accept != (popular > 0.0)))
        margin_sum += float(np.abs(popular).sum())
        return (popular - council_sum) ** 2

    mean, std_error, count = pooled_mean(gaps_squared, trials, rng, workers)
    estimate = DeltaEstimate(value=mean, method=MONTE_CARLO, std_error=std_error, trials=count)
    return estimate, disagree, margin_sum, yes_counts


def delta(council, weights, mode=SEMI_EXACT, trials=100_000, rng=None, workers=1):
    """Democracy deficit of the council under the given weights.

    ``exact`` enumerates the product of per-state outcome spaces (total
    population capped); ``semi_exact`` evaluates the closed-form expansion
    from exact per-state moments; ``monte_carlo`` simulates the popular and
    council votes directly. The deficit is defined for arbitrary finite
    weights (council simulation itself requires nonnegative ones).
    """
    w = _as_weights(weights, council)
    if mode == EXACT:
        return _delta_exact(council, w)
    if mode == SEMI_EXACT:
        return council_moments(council).deficit(w)
    if mode == MONTE_CARLO:
        if rng is None:
            raise ValueError("Monte Carlo deficits need an RngStream")
        if trials < 2:
            raise ValueError("need at least 2 trials")
        return _council_trials(council, w, trials, rng, workers)[0]
    raise ValueError(f"unknown deficit mode {mode!r}")


def ray_scale(council, direction):
    """Scale c* minimizing the deficit along c * direction, from the
    closed-form quadratic: c* = sum(u E|S|) / (sum u^2 + tie cross-term)."""
    u = _as_weights(direction, council)
    return council_moments(council).ray_scale(u)


# --------------------------------------------------------------------------
# minimizer verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationCheck:
    state: str
    step: float
    delta_value: float
    not_below: bool


@dataclass(frozen=True)
class VertexCheck:
    state: str
    vertex: float
    expected_margin: float
    within_tol: bool


@dataclass(frozen=True)
class MinimizerReport:
    delta_at_weights: float
    perturbations: tuple
    vertices: tuple

    @property
    def ok(self):
        return all(p.not_below for p in self.perturbations) and all(
            v.within_tol for v in self.vertices
        )

    def violations(self):
        return tuple(c for c in self.perturbations + self.vertices
                     if not (c.not_below if isinstance(c, PerturbationCheck) else c.within_tol))


def verify_minimizer(council, w_star, step):
    """Check that the deficit does not drop under coordinate perturbations
    of the given weights, and that its per-coordinate quadratic vertex sits
    at the state's expected margin, all read from one ``council_moments``
    table. The deficits' terms reach sum E(S^2), and their rounding moves
    the finite-difference vertex by up to about eps sum E(S^2) / step: the
    vertex tolerance is 1e-9 + 4 eps sum E(S^2) / step.

    Violations are reported, not raised: councils with two or more
    even-population states have tie correlations that legitimately shift
    the vertices.
    """
    if not step > 0.0:
        raise ValueError("step must be > 0")
    w0 = _as_weights(w_star, council)
    table = council_moments(council)
    base = table.deficit(w0).value
    tol = 1e-9 + 4.0 * np.finfo(float).eps * table.seconds.sum() / step
    perturbations = []
    vertices = []
    for i, state in enumerate(council.states):
        plus = w0.copy()
        plus[i] += step
        minus = w0.copy()
        minus[i] -= step
        d_plus = table.deficit(plus).value
        d_minus = table.deficit(minus).value
        perturbations.append(PerturbationCheck(state.name, +step, d_plus, d_plus >= base))
        perturbations.append(PerturbationCheck(state.name, -step, d_minus, d_minus >= base))
        curvature = d_plus - 2.0 * base + d_minus
        if curvature <= 0.0:
            vertices.append(VertexCheck(state.name, math.nan, math.nan, False))
            continue
        vertex = w0[i] - step * (d_plus - d_minus) / (2.0 * curvature)
        target = float(table.margins[i])
        vertices.append(VertexCheck(state.name, vertex, target, abs(vertex - target) <= tol))
    return MinimizerReport(
        delta_at_weights=base,
        perturbations=tuple(perturbations),
        vertices=tuple(vertices),
    )
