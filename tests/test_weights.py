"""Fair weights, the deficit, and the minimizer property.

The enumeration oracle pins the deficit landscape: it is quadratic in each
weight with vertex at the state's full expected margin E|S| (a one-voter
state with weight E|S| = 1 has zero deficit, since its delegate IS the
voter). The half-margin variant of the weight formula fails these checks
and is deliberately not what optimal_weights computes.
"""

import itertools
import math

import numpy as np
import pytest

from faircouncil import (
    CommonBelief,
    CouncilSpec,
    DiscreteSymmetric,
    GriddedDensity,
    Independent,
    MeanField,
    PointMassZero,
    RngStream,
    StateSpec,
    UniformSymmetric,
    WeightVector,
    compare_weight_rules,
    delta,
    estimators,
    optimal_weights,
    verify_minimizer,
)
from faircouncil import weights
from faircouncil.measures import pmf_exact
from faircouncil.weights import (
    council_moments,
    ray_scale,
    state_margin,
    state_second_moment,
    state_tie_probability,
)

from oracles import all_outcomes, enumerate_delta

IND135 = CouncilSpec([
    ("a", 1, Independent()),
    ("b", 3, Independent()),
    ("c", 5, Independent()),
])

MIXED = CouncilSpec([
    ("a", 3, Independent()),
    ("b", 4, MeanField(1.2)),
    ("c", 5, CommonBelief(UniformSymmetric(0.8))),
    ("d", 2, CommonBelief(DiscreteSymmetric([(-0.5, 0.5), (0.5, 0.5)]))),
])


def mixed_states():
    return [(s.population, s.model) for s in MIXED.states]


class TestCouncilSpec:
    def test_tuple_states_are_wrapped(self):
        assert all(isinstance(s, StateSpec) for s in IND135.states)
        assert IND135.total_population == 9

    def test_unique_names(self):
        with pytest.raises(ValueError):
            CouncilSpec([("a", 1, Independent()), ("a", 2, Independent())])

    def test_quota_range(self):
        with pytest.raises(ValueError):
            CouncilSpec([("a", 1, Independent())], quota=1.0)

    def test_population_positive(self):
        with pytest.raises(ValueError):
            CouncilSpec([("a", 0, Independent())])

    def test_needs_states(self):
        with pytest.raises(ValueError):
            CouncilSpec([])

    def test_population_whole(self):
        with pytest.raises(ValueError, match="'a': population must be a whole number"):
            CouncilSpec([("a", 2.5, Independent())])
        with pytest.raises(ValueError, match="whole number"):
            state_tie_probability(StateSpec("a", 2.5, Independent()))


class TestWeightVector:
    def test_normalized_copy(self):
        wv = WeightVector([1.0, 1.5, 1.875])
        assert wv.normalized == (1.0 / 1.875, 0.8, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector([1.0, -0.5])


class TestOptimalWeights:
    def test_independent_135(self):
        # enumeration oracle: E|S| = 1, 1.5, 1.875 for populations 1, 3, 5
        wv = optimal_weights(IND135)
        assert wv.values == pytest.approx((1.0, 1.5, 1.875), abs=1e-12)
        assert wv.normalized[-1] == 1.0

    def test_single_voter_state_weight_gives_zero_deficit(self):
        council = CouncilSpec([("solo", 1, Independent())])
        wv = optimal_weights(council)
        assert wv.values == pytest.approx((1.0,), abs=1e-14)
        assert delta(council, wv, mode="exact").value == pytest.approx(0.0, abs=1e-14)

    def test_sqrt_population_ratio(self):
        council = CouncilSpec([("s", 100, Independent()), ("l", 400, Independent())])
        wv = optimal_weights(council)
        assert wv.values[1] / wv.values[0] == pytest.approx(2.0, rel=0.02)

    def test_margins_attached(self):
        wv = optimal_weights(IND135)
        assert [m.method for m in wv.margins] == ["exact"] * 3

    def test_beyond_budget_raises(self):
        big = StateSpec("big", estimators.DEFAULT_POPULATION_BUDGET + 1, Independent())
        with pytest.raises(ValueError) as expected:
            state_margin(big)
        with pytest.raises(ValueError) as got:
            optimal_weights(CouncilSpec([("small", 3, Independent()), big]))
        assert str(got.value) == str(expected.value)
        assert "exceeds the exact-route budget" in str(got.value)


class TestStateMoments:
    def test_second_moment_independent(self):
        assert state_second_moment(StateSpec("x", 7, Independent())) == 7.0

    def test_second_moment_common_belief_matches_enumeration(self):
        for n, model in mixed_states():
            direct = 0.0
            for outcome in all_outcomes(n):
                direct += pmf_exact(model, outcome) * float(outcome.sum()) ** 2
            assert state_second_moment(StateSpec("x", n, model)) == pytest.approx(
                direct, abs=1e-9
            )

    def test_tie_probability_matches_enumeration(self):
        for n, model in mixed_states():
            direct = 0.0
            for outcome in all_outcomes(n):
                if outcome.sum() == 0:
                    direct += pmf_exact(model, outcome)
            assert state_tie_probability(StateSpec("x", n, model)) == pytest.approx(
                direct, abs=1e-12
            )

    @pytest.mark.parametrize("belief", [UniformSymmetric(1.0),
                                        GriddedDensity(np.linspace(-1, 1, 11), np.full(11, 0.5))])
    @pytest.mark.parametrize("n", [10**5, 10**7])
    def test_uniform_belief_tie_is_one_over_n_plus_one(self, belief, n):
        # every yes-count is equally likely under a uniform p
        tie = state_tie_probability(StateSpec("x", n, CommonBelief(belief)))
        assert tie == pytest.approx(1.0 / (n + 1), rel=1e-14, abs=0)


class TestDeltaRoutes:
    def test_single_voter_half_weight(self):
        council = CouncilSpec([("solo", 1, Independent())])
        assert delta(council, [0.5], mode="exact").value == pytest.approx(0.25, abs=1e-14)
        assert delta(council, [0.5], mode="semi_exact").value == pytest.approx(0.25, abs=1e-14)

    def test_zero_weights_give_total_second_moment(self):
        expected = sum(state_second_moment(s) for s in MIXED.states)
        assert delta(MIXED, [0.0] * 4, mode="semi_exact").value == pytest.approx(
            expected, abs=1e-9
        )
        assert delta(MIXED, [0.0] * 4, mode="exact").value == pytest.approx(
            expected, abs=1e-9
        )

    def test_single_state_quadratic_scan(self):
        # 8-outcome enumeration: Delta(w) = 3 - 3 w + w^2, vertex at E|S| = 1.5
        council = CouncilSpec([("s", 3, Independent())])
        for w in (0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            expected = 3.0 - 3.0 * w + w * w
            assert delta(council, [w], mode="exact").value == pytest.approx(expected, abs=1e-12)
        scan = {w: delta(council, [w], mode="exact").value for w in np.arange(0.0, 3.01, 0.05)}
        assert min(scan, key=scan.get) == pytest.approx(1.5, abs=1e-12)

    def test_semi_exact_matches_enumeration_on_independent_council(self):
        w = (1.0, 1.5, 1.875)
        enum = enumerate_delta([(1, Independent()), (3, Independent()), (5, Independent())], w)
        assert delta(IND135, w, mode="semi_exact").value == pytest.approx(enum, abs=1e-12)
        assert delta(IND135, w, mode="exact").value == pytest.approx(enum, abs=1e-12)

    def test_semi_exact_matches_enumeration_on_mixed_council(self):
        for w in ([1.0, 2.0, 3.0, 0.5], [0.3, 0.0, 1.1, 2.0], list(optimal_weights(MIXED).values)):
            enum = enumerate_delta(mixed_states(), w)
            semi = delta(MIXED, w, mode="semi_exact").value
            exact = delta(MIXED, w, mode="exact").value
            assert semi == pytest.approx(enum, abs=1e-10)
            assert exact == pytest.approx(enum, abs=1e-10)

    def test_tie_cross_term_is_required(self):
        # two even states: E chi(S) = -P(S = 0) makes the council terms
        # correlate; the naive per-state expansion misses 0.5 here
        council = CouncilSpec([("a", 2, Independent()), ("b", 2, Independent())])
        enum = enumerate_delta([(2, Independent()), (2, Independent())], [1.0, 1.0])
        assert enum == pytest.approx(2.5, abs=1e-12)
        assert delta(council, [1.0, 1.0], mode="semi_exact").value == pytest.approx(
            enum, abs=1e-12
        )

    def test_monte_carlo_agrees(self):
        wv = optimal_weights(IND135)
        exact = delta(IND135, wv, mode="exact").value
        mc = delta(IND135, wv, mode="monte_carlo", trials=200_000, rng=RngStream(5), workers=3)
        assert abs(mc.value - exact) <= 4 * mc.std_error

    def test_exact_population_cap(self):
        council = CouncilSpec([("a", 12, Independent()), ("b", 11, Independent())])
        with pytest.raises(ValueError):
            delta(council, [1.0, 1.0], mode="exact")

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            delta(IND135, [1.0, 2.0], mode="semi_exact")


class TestMinimizer:
    def test_optimal_weights_survive_perturbations(self):
        wv = optimal_weights(IND135)
        report = verify_minimizer(IND135, wv, step=0.1)
        assert report.ok
        assert all(p.delta_value >= report.delta_at_weights for p in report.perturbations)

    def test_vertices_sit_at_expected_margins(self):
        report = verify_minimizer(IND135, optimal_weights(IND135), step=0.25)
        for check in report.vertices:
            assert abs(check.vertex - check.expected_margin) <= 1e-9

    def test_doubled_weights_increase_deficit(self):
        wv = optimal_weights(IND135)
        base = delta(IND135, wv, mode="exact").value
        doubled = delta(IND135, [2 * v for v in wv.values], mode="exact").value
        assert doubled > base + 1e-9

    def test_mixed_council_minimizer(self):
        odd = CouncilSpec([
            ("a", 3, Independent()),
            ("b", 5, MeanField(1.2)),
            ("c", 7, CommonBelief(UniformSymmetric(0.8))),
        ])
        report = verify_minimizer(odd, optimal_weights(odd), step=0.05)
        assert report.ok

    def test_even_population_ties_shift_the_vertex(self):
        # reported, not raised: with two even states the optimum moves
        council = CouncilSpec([("a", 2, Independent()), ("b", 2, Independent())])
        report = verify_minimizer(council, optimal_weights(council), step=0.1)
        assert not report.ok
        assert report.violations()

    @pytest.mark.parametrize("populations", [
        (100_001, 300_001, 500_001),
        (5 * 10**7 + 1, 8 * 10**7 + 1, 3 * 10**7 + 1),
    ])
    def test_vertex_tolerance_covers_the_deficits_rounding(self, populations):
        # all odd, so no tie shift: the vertex is off only by the rounding of
        # deficits whose terms reach sum E(S^2), well above 1e-9 here
        models = (Independent(), MeanField(0.5), CommonBelief(UniformSymmetric(0.1)))
        council = CouncilSpec(list(zip("abc", populations, models)))
        report = verify_minimizer(council, optimal_weights(council), step=0.1)
        assert report.ok
        assert max(abs(v.vertex - v.expected_margin) for v in report.vertices) > 1e-9

    def test_council_of_27_large_states_is_a_minimizer(self):
        rng = np.random.default_rng(3)
        models = [Independent(), MeanField(0.5), MeanField(1.5),
                  CommonBelief(UniformSymmetric(0.1)), MeanField(0.9)]
        council = CouncilSpec([(f"s{i}", int(10 ** rng.uniform(5.7, 7.9)) | 1, models[i % 5])
                               for i in range(27)])
        assert verify_minimizer(council, optimal_weights(council), step=1.0).ok

    def test_reads_one_moment_table(self, monkeypatch):
        w = optimal_weights(MIXED)
        tables = []

        def counted(council):
            tables.append(council)
            return council_moments(council)

        monkeypatch.setattr(weights, "council_moments", counted)
        verify_minimizer(MIXED, w, step=0.1)
        assert tables == [MIXED]

    def test_lattice_search_lands_on_optimal_weights(self):
        # exhaustive 0.05-lattice over the semi-exact deficit (validated
        # against enumeration above) has its minimum at the grid point
        # nearest the computed weights
        wv = np.asarray(optimal_weights(IND135).values)
        axes = [np.arange(0.0, 3.0001, 0.05)] * 3
        best, best_val = None, math.inf
        margins = np.array([1.0, 1.5, 1.875])
        seconds = np.array([1.0, 3.0, 5.0])
        for w in itertools.product(*axes):
            w_arr = np.asarray(w)
            val = seconds.sum() - 2.0 * np.dot(w_arr, margins) + np.dot(w_arr, w_arr)
            if val < best_val:
                best, best_val = w_arr, val
        np.testing.assert_allclose(best, np.round(wv / 0.05) * 0.05, atol=1e-9)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_minimizer(IND135, optimal_weights(IND135), step=0.0)


class TestSignIdentity:
    @pytest.mark.parametrize(
        "model",
        [Independent(), CommonBelief(UniformSymmetric(1.0)), MeanField(1.5)],
        ids=str,
    )
    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_spin_sign_product_equals_abs(self, model, n):
        # S * chi(S) = |S| pointwise, so the expectations agree exactly;
        # the mean spin vanishes by flip symmetry
        outcomes = all_outcomes(n)
        probs = np.array([pmf_exact(model, o) for o in outcomes])
        totals = outcomes.sum(axis=1, dtype=np.int64).astype(float)
        chi = np.where(totals > 0, 1.0, -1.0)
        assert np.dot(probs, totals) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(probs, totals * chi) == pytest.approx(
            np.dot(probs, np.abs(totals)), abs=1e-12
        )


class TestRayScale:
    def test_optimal_direction_has_unit_scale(self):
        wv = optimal_weights(IND135)
        assert ray_scale(IND135, wv) == pytest.approx(1.0, abs=1e-12)

    def test_scale_minimizes_along_ray(self):
        direction = [1.0, 1.0, 1.0]
        c_star = ray_scale(IND135, direction)
        base = delta(IND135, [c_star * u for u in direction], mode="exact").value
        for eps in (-0.05, 0.05):
            shifted = [(c_star + eps) * u for u in direction]
            assert delta(IND135, shifted, mode="exact").value > base

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ray_scale(IND135, [0.0, 0.0, 0.0])


class TestEvenCommonBeliefTies:
    """Even common-belief populations above N = 1025, where the central
    binomial coefficient C(N, N/2) exceeds the float range."""

    N = 2000
    COUNCIL = CouncilSpec([
        ("a", 3, Independent()),
        ("b", N, CommonBelief(UniformSymmetric(1.0))),
    ])

    def test_uniform_tie_probability(self):
        for n in (2000, 100_000, 10**7):
            tie = state_tie_probability(StateSpec("x", n, CommonBelief(UniformSymmetric(1.0))))
            assert tie == pytest.approx(1.0 / (n + 1), rel=1e-9), n

    def test_semi_exact_delta_and_ray_scale(self):
        n = self.N
        margin = n * (n + 2) / (2 * (n + 1))
        # one state can tie, so the tie cross-term vanishes
        expected = (3.0 - 1.5**2) + (n + n * (n - 1) / 3.0 - margin**2)
        w = optimal_weights(self.COUNCIL)
        assert w.values[1] == pytest.approx(margin, rel=1e-12)
        assert delta(self.COUNCIL, w).value == pytest.approx(expected, rel=1e-9)
        assert ray_scale(self.COUNCIL, w.values) == pytest.approx(1.0, rel=1e-12)


class TestGriddedDeficit:
    """A gridded belief is one piecewise-linear law for E S^2, E|S| and
    P(S=0), so at the optimal weights of odd populations the semi-exact
    deficit is the sum of the states' variances of |S|."""

    V = GriddedDensity([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])

    def test_semi_exact_delta_at_optimal_weights(self):
        for n in (3, 11, 101, 1001):
            council = CouncilSpec([("a", 5, Independent()), ("b", n, CommonBelief(self.V))])
            w = optimal_weights(council)
            # E zeta^2 = 1/2 under the density |zeta|
            seconds = np.array([5.0, n + n * (n - 1) / 2.0])
            expected = float(np.sum(seconds - np.square(w.values)))
            assert expected > 0.0
            assert delta(council, w).value == pytest.approx(expected, rel=1e-9), n


TABLE_MODELS = {
    "independent": Independent(),
    "mf0.5": MeanField(0.5),
    "mf1": MeanField(1.0),
    "mf1.5": MeanField(1.5),
    "uniform": CommonBelief(UniformSymmetric(0.7)),
    "atoms": CommonBelief(DiscreteSymmetric([(-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)])),
    "grid": CommonBelief(GriddedDensity([-1.0, 0.0, 1.0], [0.25, 0.75, 0.25])),
    "point_mass": CommonBelief(PointMassZero()),
}


class TestMomentTable:
    """One table of (E|S|, E S^2, P(S=0)) per council serves every
    semi-exact route; its rows are the per-state functions' values."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_rows_equal_per_state_moments(self, n):
        council = CouncilSpec([(name, n, model) for name, model in TABLE_MODELS.items()])
        table = council_moments(council)
        for i, state in enumerate(council.states):
            row = (table.margins[i], table.seconds[i], table.ties[i])
            assert row == (state_margin(state).value, state_second_moment(state),
                           state_tie_probability(state)), state.name

    @pytest.mark.parametrize("model", [Independent(), MeanField(1.5),
                                       CommonBelief(UniformSymmetric(1.0))])
    def test_beyond_budget_raises_as_state_margin(self, model):
        big = StateSpec("big", estimators.DEFAULT_POPULATION_BUDGET + 1, model)
        with pytest.raises(ValueError) as expected:
            state_margin(big)
        with pytest.raises(ValueError) as got:
            council_moments(CouncilSpec([("a", 3, Independent()), big]))
        assert str(got.value) == str(expected.value)

    def test_verify_minimizer_is_delta_by_delta(self):
        w0 = np.array(optimal_weights(MIXED).values)
        step = 0.1
        report = verify_minimizer(MIXED, w0, step=step)
        base = delta(MIXED, w0).value
        assert report.delta_at_weights == base
        for i, state in enumerate(MIXED.states):
            plus, minus = w0.copy(), w0.copy()
            plus[i] += step
            minus[i] -= step
            d_plus, d_minus = delta(MIXED, plus).value, delta(MIXED, minus).value
            assert report.perturbations[2 * i].delta_value == d_plus
            assert report.perturbations[2 * i + 1].delta_value == d_minus
            vertex = w0[i] - step * (d_plus - d_minus) / (2.0 * (d_plus - 2.0 * base + d_minus))
            assert report.vertices[i].vertex == vertex
            assert report.vertices[i].expected_margin == state_margin(state).value

    def test_compare_weight_rules_is_delta_by_delta(self):
        pops = np.array([s.population for s in MIXED.states], dtype=float)
        directions = {
            "optimal": np.array(optimal_weights(MIXED).values),
            "sqrt_population": np.sqrt(pops),
            "proportional_population": pops,
            "equal": np.ones_like(pops),
        }
        rows = compare_weight_rules(MIXED, 200, RngStream(31))
        assert [r.rule for r in rows] == list(directions)
        for row in rows:
            scale = ray_scale(MIXED, directions[row.rule])
            scaled = directions[row.rule] * scale
            assert row.scale == scale
            assert row.weights == tuple(float(v) for v in scaled)
            assert row.delta_semi_exact == delta(MIXED, scaled).value


def test_state_margin_is_exact_up_to_the_budget():
    n = estimators.DEFAULT_POPULATION_BUDGET
    margin = state_margin(StateSpec("a", n, Independent()))
    assert margin.method == "exact" and margin.samples == 0
    assert margin.value == estimators.state_law(Independent(), n).abs_moment()
    with pytest.raises(ValueError, match="exceeds the exact-route budget"):
        state_margin(StateSpec("a", n + 1, Independent()))


@pytest.mark.parametrize("extra", [1, 2])
@pytest.mark.parametrize("model", [Independent(), MeanField(0.5),
                                   CommonBelief(UniformSymmetric(9e-4))])
def test_every_moment_reader_checks_the_budget(model, extra):
    # odd (extra 1) and even (extra 2) populations alike, every reader goes
    # through estimators.exact_law, which refuses a population past the budget
    big = StateSpec("big", estimators.DEFAULT_POPULATION_BUDGET + extra, model)
    with pytest.raises(ValueError) as expected:
        state_margin(big)
    readers = (state_second_moment, state_tie_probability,
               lambda s: council_moments(CouncilSpec([("a", 3, Independent()), s])))
    for reader in readers:
        with pytest.raises(ValueError) as got:
            reader(big)
        assert str(got.value) == str(expected.value)


def test_a_coupling_without_a_law_raises_in_every_reader():
    # at odd N the tie is 0.0, but only once the state has a law
    state = StateSpec("x", 1001, MeanField(1e308))
    with pytest.raises(ValueError) as expected:
        state_margin(state)
    readers = (state_second_moment, state_tie_probability,
               lambda s: council_moments(CouncilSpec([("a", 3, Independent()), s])))
    for reader in readers:
        with pytest.raises(ValueError) as got:
            reader(state)
        assert str(got.value) == str(expected.value)


def test_every_exact_reader_goes_through_exact_law(monkeypatch):
    real, calls = estimators.exact_law, []

    def counted(model, n):
        calls.append((model, n))
        return real(model, n)

    monkeypatch.setattr(estimators, "exact_law", counted)
    state = StateSpec("a", 1000, MeanField(0.5))
    estimators.expected_margin_exact(state.model, state.population)
    state_second_moment(state)
    state_tie_probability(state)
    weights._state_moments(state)
    council_moments(CouncilSpec([state]))
    assert calls == [(state.model, state.population)] * 5
