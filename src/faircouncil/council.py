"""End-to-end council simulation: per-state popular votes, weighted
aggregation under a quota, deficit and disagreement metrics, and
comparisons between weight rules."""

import math
from dataclasses import dataclass

import numpy as np

from .core import majority_sign
from .weights import (
    DeltaEstimate,
    _as_weights,
    _council_trials,
    delta,
    optimal_weights,
    ray_scale,
)


def state_delegate_vote(state_outcome):
    """The delegate's council vote: the majority sign of the state's votes,
    with ties voting no."""
    votes = np.asarray(state_outcome)
    return majority_sign(int(votes.sum(dtype=np.int64)))


def council_decision(delegate_votes, weights, quota=0.5):
    """Accept/reject under weighted voting with a quota.

    Acceptance requires sum(w_v xi_v) >= (2q - 1) * sum(w_v); the default
    quota 0.5 denotes the simple-majority limit, where the weighted sum
    must be strictly positive (a tied council rejects).
    """
    xi = np.asarray(delegate_votes, dtype=float)
    w = np.asarray(weights, dtype=float)
    if xi.shape != w.shape:
        raise ValueError(f"{xi.size} delegate votes but {w.size} weights")
    if not 0.0 < quota < 1.0:
        raise ValueError(f"quota must lie in (0, 1), got {quota}")
    value = float(np.dot(w, xi))
    if quota == 0.5:
        return value > 0.0
    return value >= (2.0 * quota - 1.0) * float(w.sum())


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


def _rule_direction(council, rule):
    pops = np.array([s.population for s in council.states], dtype=float)
    if rule == "optimal":
        return np.asarray(optimal_weights(council).values)
    if rule == "sqrt_population":
        return np.sqrt(pops)
    if rule == "proportional_population":
        return pops
    if rule == "equal":
        return np.ones_like(pops)
    raise ValueError(f"unknown weight rule {rule!r}")


def compare_weight_rules(council, trials, rng, workers=1, rules=RULES):
    """Deficit and disagreement for the classic weight rules.

    Each rule fixes only a direction; the deficit is scale-sensitive even
    though the induced voting system is not, so every rule is first scaled
    to the deficit-minimizing point on its own ray before being simulated.
    """
    rows = []
    for rule in rules:
        direction = _rule_direction(council, rule)
        scale = ray_scale(council, direction)
        scaled = direction * scale
        semi = delta(council, scaled, mode="semi_exact").value
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
