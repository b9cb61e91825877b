"""Council aggregation, simulation, and weight-rule comparison."""

import itertools
import math

import numpy as np
import pytest

from faircouncil import (
    CommonBelief,
    CouncilSpec,
    Independent,
    MeanField,
    RngStream,
    UniformSymmetric,
    compare_weight_rules,
    council_decision,
    delta,
    optimal_weights,
    simulate,
    state_delegate_vote,
)
from faircouncil import weights as weights_module
from faircouncil.core import signs
from faircouncil.measures import _totals_with_generator
from faircouncil.weights import state_second_moment

IND135 = CouncilSpec([
    ("a", 1, Independent()),
    ("b", 3, Independent()),
    ("c", 5, Independent()),
])


class TestDelegateVote:
    def test_majority_yes(self):
        assert state_delegate_vote([1, 1, -1]) == 1

    def test_tie_votes_no(self):
        assert state_delegate_vote([1, -1]) == -1

    def test_unanimous_no(self):
        assert state_delegate_vote([-1, -1, -1]) == -1


class TestCouncilDecision:
    def test_simple_majority_accepts_positive(self):
        assert council_decision([1, 1, -1], [1.0, 1.0, 1.0]) is True

    def test_simple_majority_rejects_tie(self):
        assert council_decision([1, -1], [1.0, 1.0]) is False

    def test_quota_blocks_thin_majority(self):
        # need 0.5 * 3 = 1.5 weighted votes, have 1
        assert council_decision([1, 1, -1], [1.0, 1.0, 1.0], quota=0.75) is False

    def test_quota_threshold_is_inclusive(self):
        assert council_decision([1, 1, -1, -1], [1.0] * 4, quota=0.5 + 1e-12) is False
        assert council_decision([1, 1, 1, -1], [1.0] * 4, quota=0.75) is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            council_decision([1, -1], [1.0])

    def test_quota_range(self):
        with pytest.raises(ValueError):
            council_decision([1], [1.0], quota=0.0)


class TestCouncilDecisionInput:
    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf],
                                         [-0.5, 1.0]], ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("quota", [0.5, 0.6])
    def test_weights_must_be_finite_and_nonnegative(self, weights, quota):
        with pytest.raises(ValueError, match="finite and >= 0"):
            council_decision([1, -1], weights, quota=quota)

    @pytest.mark.parametrize("votes", [[0, -1], [2, -1], [1, 0]])
    def test_votes_must_be_spins(self, votes):
        with pytest.raises(ValueError, match="exactly -1 or \\+1"):
            council_decision(votes, [1.0, 1.5])

    def test_whole_number_weights_decide_a_tie_exactly(self):
        # the side sums are exact below 2^53, so a tie is seen as one
        big = float(2**51)
        assert council_decision([1, 1, -1], [big + 1.0, 3.0, big + 4.0]) is False
        assert council_decision([1, -1, 1, -1], [2.0, 7.0, 5.0, 0.0]) is False


class TestSimulate:
    def test_matches_exact_deficit(self):
        wv = optimal_weights(IND135)
        exact = delta(IND135, wv, mode="exact").value
        result = simulate(IND135, wv, 400_000, RngStream(17), workers=4)
        assert abs(result.delta.value - exact) <= 4 * result.delta.std_error

    def test_zero_weights_reject_everything(self):
        # council sum is 0, never strictly positive: disagreement happens
        # exactly when the popular majority says yes (odd total, so ~1/2)
        result = simulate(IND135, [0.0, 0.0, 0.0], 200_000, RngStream(18))
        expected = sum(state_second_moment(s) for s in IND135.states)
        assert abs(result.delta.value - expected) <= 4 * result.delta.std_error
        stderr = math.sqrt(0.25 / result.trials)
        assert abs(result.disagreement_rate - 0.5) <= 4 * stderr

    def test_yes_rates_are_symmetric(self):
        result = simulate(IND135, optimal_weights(IND135), 200_000, RngStream(19))
        for state, rate in zip(IND135.states, result.per_state_yes_rates):
            # P(delegate yes) = (1 - P(tie)) / 2; odd states never tie
            stderr = math.sqrt(0.25 / result.trials)
            assert abs(rate - 0.5) <= 4 * stderr

    def test_even_state_votes_no_on_ties(self):
        council = CouncilSpec([("a", 2, Independent())])
        result = simulate(council, [1.0], 200_000, RngStream(20))
        # yes rate = (1 - 1/2) / 2 = 1/4
        stderr = math.sqrt(0.25 * 0.75 / result.trials)
        assert abs(result.per_state_yes_rates[0] - 0.25) <= 4 * stderr

    def test_relabeling_invariance(self):
        a = CouncilSpec([("x", 4, Independent()), ("y", 4, Independent())])
        b = CouncilSpec([("y", 4, Independent()), ("x", 4, Independent())])
        ra = simulate(a, [1.0, 1.0], 200_000, RngStream(21))
        rb = simulate(b, [1.0, 1.0], 200_000, RngStream(22))
        band = 4 * math.sqrt(ra.disagreement_std_error**2 + rb.disagreement_std_error**2)
        assert abs(ra.disagreement_rate - rb.disagreement_rate) <= band

    def test_mean_popular_margin(self):
        from faircouncil import expected_margin_exact

        council = CouncilSpec([("a", 9, Independent())])
        result = simulate(council, [1.0], 200_000, RngStream(23))
        expected = expected_margin_exact(Independent(), 9).value
        stderr = 4 * math.sqrt(9.0 / result.trials)  # Var|S| <= E S^2 = 9
        assert abs(result.mean_popular_margin - expected) <= stderr

    def test_reproducible_for_fixed_workers(self):
        r1 = simulate(IND135, optimal_weights(IND135), 50_000, RngStream(24), workers=3)
        r2 = simulate(IND135, optimal_weights(IND135), 50_000, RngStream(24), workers=3)
        assert r1 == r2

    def test_simulated_deficit_is_minimal_at_optimal_weights(self):
        wv = optimal_weights(IND135)
        base = simulate(IND135, wv, 200_000, RngStream(33), workers=2)
        for i in range(3):
            for step in (+0.25, -0.25):
                perturbed = list(wv.values)
                perturbed[i] += step
                sim = simulate(IND135, perturbed, 200_000, RngStream(33), workers=2)
                band = 4 * math.sqrt(base.delta.std_error**2 + sim.delta.std_error**2)
                assert base.delta.value <= sim.delta.value + band

    def test_rejects_negative_weights_and_zero_trials(self):
        with pytest.raises(ValueError):
            simulate(IND135, [-1.0, 1.0, 1.0], 100, RngStream(0))
        with pytest.raises(ValueError):
            simulate(IND135, [1.0, 1.0, 1.0], 0, RngStream(0))


class TestInterStateIndependence:
    def test_delegate_votes_are_uncorrelated(self):
        # states draw from one worker generator sequentially, exactly as
        # the simulator consumes it
        gen = RngStream(25).worker(0)
        trials = 200_000
        xi_a = signs(_totals_with_generator(MeanField(1.5), 7, trials, gen)).astype(float)
        xi_b = signs(_totals_with_generator(Independent(), 5, trials, gen)).astype(float)
        cov = (xi_a * xi_b).mean() - xi_a.mean() * xi_b.mean()
        assert abs(cov) <= 4.0 / math.sqrt(trials)


class TestCompareRules:
    def test_large_independent_council_sqrt_ties_optimal(self):
        council = CouncilSpec([
            ("s", 100, Independent()),
            ("m", 400, Independent()),
            ("l", 900, Independent()),
        ])
        rows = {r.rule: r for r in compare_weight_rules(council, 50_000, RngStream(26))}
        opt = rows["optimal"].delta_semi_exact
        sqrt_rule = rows["sqrt_population"].delta_semi_exact
        assert opt <= sqrt_rule
        # the sqrt direction is asymptotically the optimal one
        assert sqrt_rule / opt == pytest.approx(1.0, abs=1e-4)
        band = 4 * math.sqrt(
            rows["optimal"].simulation.delta.std_error**2
            + rows["sqrt_population"].simulation.delta.std_error**2
        )
        assert abs(rows["optimal"].simulation.delta.value
                   - rows["sqrt_population"].simulation.delta.value) <= band

    def test_supercritical_council_prefers_proportional(self):
        council = CouncilSpec([
            ("s", 51, MeanField(1.5)),
            ("m", 201, MeanField(1.5)),
            ("l", 801, MeanField(1.5)),
        ])
        rows = {r.rule: r for r in compare_weight_rules(council, 50_000, RngStream(27))}
        assert rows["proportional_population"].delta_semi_exact < rows["sqrt_population"].delta_semi_exact
        assert rows["optimal"].delta_semi_exact <= rows["proportional_population"].delta_semi_exact

    def test_single_state_rules_coincide_after_scaling(self):
        council = CouncilSpec([("only", 5, Independent())])
        rows = compare_weight_rules(council, 10_000, RngStream(28))
        weights = {r.rule: r.weights for r in rows}
        deltas = {r.rule: r.delta_semi_exact for r in rows}
        for rule in weights:
            assert weights[rule][0] == pytest.approx(weights["optimal"][0], rel=1e-12)
            assert deltas[rule] == pytest.approx(deltas["optimal"], rel=1e-12)

    def test_ray_scaled_deficits_never_beat_optimal(self):
        rows = {r.rule: r for r in compare_weight_rules(IND135, 5_000, RngStream(29))}
        for rule, row in rows.items():
            assert row.delta_semi_exact >= rows["optimal"].delta_semi_exact - 1e-12

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rules_share_one_sampler_per_state(self, workers, monkeypatch):
        council = CouncilSpec([
            ("ind", 5, Independent()),
            ("mf", 101, MeanField(1.0)),
            ("mf-high", 9, MeanField(1.5)),
            ("cb", 7, CommonBelief(UniformSymmetric(0.6))),
        ])
        built = []
        build = weights_module.totals_sampler

        def spy(model, n):
            built.append((model, n))
            return build(model, n)

        monkeypatch.setattr(weights_module, "totals_sampler", spy)
        rows = compare_weight_rules(council, 3000, RngStream(40, 2), workers=workers)
        assert built == [(s.model, s.population) for s in council.states]
        # each rule's simulation is the one a separate call gives
        for row in rows:
            assert row.simulation == simulate(council, row.weights, 3000, RngStream(40, 2),
                                              workers=workers)


MIXED = CouncilSpec([
    ("ind", 6, Independent()),
    ("mf", 9, MeanField(1.5)),
    ("cb", 8, CommonBelief(UniformSymmetric(0.6))),
])


class TestOneMonteCarloLoop:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_monte_carlo_delta_is_the_simulated_deficit(self, workers):
        w = [2.0, 5.5, 3.0]
        est = delta(MIXED, w, mode="monte_carlo", trials=5000, rng=RngStream(50, 4),
                    workers=workers)
        assert est == simulate(MIXED, w, 5000, RngStream(50, 4), workers=workers).delta

    def test_fewer_trials_than_workers(self):
        w = [2.0, 5.5, 3.0]
        one = simulate(MIXED, w, 1, RngStream(51), workers=3)
        assert one.trials == one.delta.trials == 1
        assert one.delta.std_error == 0.0
        two = delta(MIXED, w, mode="monte_carlo", trials=2, rng=RngStream(51), workers=3)
        assert two.trials == 2
        assert two == simulate(MIXED, w, 2, RngStream(51), workers=3).delta


class TestTiedCouncil:
    """At quota 1/2 a tied council rejects, also where rounding would tip
    the sign of sum(w_v xi_v): the two sides' weights are compared."""

    @pytest.mark.parametrize("weight", [0.1, 1.0 / 3.0, 2.67989723487])
    @pytest.mark.parametrize("size", [2, 6, 10])
    def test_equal_weights_reject_in_any_vote_order(self, weight, size):
        for yes in itertools.combinations(range(size), size // 2):
            votes = [1 if v in yes else -1 for v in range(size)]
            assert council_decision(votes, [weight] * size) is False
            # one more yes vote accepts
            votes[votes.index(-1)] = 1
            assert council_decision(votes, [weight] * size) is True

    def test_tie_of_tenths_rejects(self):
        assert council_decision([1, 1, 1, -1, -1, -1], [0.1] * 6) is False

    def test_disagreement_matches_integer_count_reference(self):
        # equal weights: the council accepts exactly when more delegates say
        # yes than no, an integer comparison
        council = CouncilSpec([
            ("a", 3, Independent()), ("b", 4, Independent()), ("c", 7, Independent()),
            ("d", 2, MeanField(1.5)), ("e", 9, MeanField(0.5)),
            ("f", 6, CommonBelief(UniformSymmetric(0.6))),
        ])
        trials = 20_000
        result = simulate(council, [0.1] * council.size, trials, RngStream(31))
        gen = RngStream(31).worker(0)
        totals = [_totals_with_generator(s.model, s.population, trials, gen)
                  for s in council.states]
        yes_votes = sum((signs(t) > 0).astype(int) for t in totals)
        accept = 2 * yes_votes > council.size
        disagree = int(np.count_nonzero(accept != (sum(totals) > 0)))
        assert np.count_nonzero(2 * yes_votes == council.size) > trials // 10
        assert result.disagreement_rate == disagree / trials
