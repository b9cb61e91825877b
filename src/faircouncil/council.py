"""End-to-end council simulation: per-state popular votes, weighted
aggregation under a quota, deficit and disagreement metrics, and
comparisons between weight rules."""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_outcome, majority_sign
from .weights import DeltaEstimate, _as_weights, _council_trials, council_moments


def state_delegate_vote(state_outcome):
    """The delegate's council vote: the majority sign of the state's votes,
    with ties voting no."""
    votes = np.asarray(state_outcome)
    return majority_sign(int(votes.sum(dtype=np.int64)))


def council_decision(delegate_votes, weights, quota=0.5):
    """Accept/reject under weighted voting with a quota, from delegate votes
    of exactly -1 or +1 and finite weights >= 0.

    Acceptance requires sum(w_v xi_v) >= (2q - 1) * sum(w_v); the default
    quota 0.5 denotes the simple-majority limit, where the weighted sum
    must be strictly positive (a tied council rejects). There the yes and
    no sides' weights are summed apart, each in council order, and
    compared, so equal weights, and whole-number weights whose sums stay
    below 2^53, decide an exact tie exactly. Other weights whose two side
    sums round apart can still accept a tie.
    """
    xi = as_outcome(delegate_votes).astype(float)
    w = np.asarray(weights, dtype=float)
    if xi.shape != w.shape:
        raise ValueError(f"{xi.size} delegate votes but {w.size} weights")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
        raise ValueError("council weights must be finite and >= 0")
    if not 0.0 < quota < 1.0:
        raise ValueError(f"quota must lie in (0, 1), got {quota}")
    if quota == 0.5:
        yes = no = 0.0
        for wv, x in zip(w.tolist(), xi.tolist()):
            if x > 0.0:
                yes += wv
            else:
                no += wv
        return yes > no
    return float(np.dot(w, xi)) >= (2.0 * quota - 1.0) * float(w.sum())


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo summary of a council under fixed weights.

    ``disagreement_rate`` is the fraction of trials in which the council's
    accept/reject decision differs from the sign of the popular vote; the
    per-state yes rates count trials where the state's delegate voted yes.
    """

    delta: DeltaEstimate
    disagreement_rate: float
    disagreement_std_error: float
    mean_popular_margin: float
    trials: int
    per_state_yes_rates: tuple

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0.0 <= self.disagreement_rate <= 1.0:
            raise ValueError("disagreement rate must lie in [0, 1]")
        if any(not 0.0 <= r <= 1.0 for r in self.per_state_yes_rates):
            raise ValueError("yes rates must lie in [0, 1]")


def simulate(council, weights, trials, rng, workers=1):
    """Simulate the council for ``trials`` independent proposals.

    States are sampled independently of each other; each trial accumulates
    the squared popular-council gap, the decision disagreement, the popular
    margin, and the per-state delegate votes. Trials are partitioned over
    worker substreams, so fixed (seed, workers) reproduces every number.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    w = _as_weights(weights, council)
    if np.any(w < 0.0):
        raise ValueError("council weights must be >= 0")
    estimate, disagree, margin_sum, yes_counts = _council_trials(council, w, trials, rng, workers)
    count = estimate.trials
    rate = disagree / count
    return SimulationResult(
        delta=estimate,
        disagreement_rate=rate,
        disagreement_std_error=math.sqrt(max(rate * (1.0 - rate), 0.0) / count),
        mean_popular_margin=margin_sum / count,
        trials=count,
        per_state_yes_rates=tuple(yes_counts / count),
    )


# --------------------------------------------------------------------------
# weight-rule comparison
# --------------------------------------------------------------------------

RULES = ("optimal", "sqrt_population", "proportional_population", "equal")


@dataclass(frozen=True)
class RuleComparison:
    rule: str
    scale: float
    weights: tuple
    delta_semi_exact: float
    simulation: SimulationResult


def _rule_direction(council, table, rule):
    pops = np.array([s.population for s in council.states], dtype=float)
    if rule == "optimal":
        return table.margins
    if rule == "sqrt_population":
        return np.sqrt(pops)
    if rule == "proportional_population":
        return pops
    return np.ones_like(pops)  # "equal"


def compare_weight_rules(council, trials, rng, workers=1):
    """Deficit and disagreement for each of the classic weight ``RULES``.

    Each rule fixes only a direction; the deficit is scale-sensitive even
    though the induced voting system is not, so every rule is first scaled
    to the deficit-minimizing point on its own ray before being simulated.
    """
    table = council_moments(council)
    rows = []
    for rule in RULES:
        direction = _rule_direction(council, table, rule)
        scale = table.ray_scale(direction)
        scaled = direction * scale
        semi = table.deficit(scaled).value
        sim = simulate(council, scaled, trials, rng, workers=workers)
        rows.append(
            RuleComparison(
                rule=rule,
                scale=scale,
                weights=tuple(float(v) for v in scaled),
                delta_semi_exact=semi,
                simulation=sim,
            )
        )
    return rows
