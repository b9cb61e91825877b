"""Exact, Monte Carlo, and asymptotic expected-margin routes."""

import math

import numpy as np
import pytest

from faircouncil import (
    CommonBelief,
    DiscreteSymmetric,
    GriddedDensity,
    Independent,
    MeanField,
    PointMassZero,
    RngStream,
    UniformSymmetric,
    expected_margin,
    expected_margin_asymptotic,
    expected_margin_exact,
    expected_margin_mc,
)
from faircouncil.estimators import (
    DEFAULT_POPULATION_BUDGET,
    binom_abs_moments,
    binom_mean_abs_deviation,
    state_law,
)
from faircouncil.measures import pmf_exact
from faircouncil.meanfield import CriticalCouplingError, asymptotic_weight_meanfield

from oracles import all_outcomes, brute_force_margin, independent_abs_margin_closed_form

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# frozen oracle values
E_ABS_IND_100 = 7.958923738717435     # closed form n C(2m, m) / 4^m
E_ABS_IND_1000 = 25.225018178375244
E_ABS_MF_HALF_N2 = 1.4621171572600098  # 4-outcome enumeration, 2e/(e+1)
E_ABS_MF_15_500 = 428.90638235110976   # magnetization sum, cross-checked below
E_ABS_CB_U1_1000 = 500.4995004995006   # adaptive-quadrature oracle


class TestExact:
    def test_two_voters(self):
        assert expected_margin_exact(Independent(), 2).value == pytest.approx(1.0, abs=1e-12)

    def test_three_voters(self):
        assert expected_margin_exact(Independent(), 3).value == pytest.approx(1.5, abs=1e-12)

    def test_meanfield_two_voters(self):
        est = expected_margin_exact(MeanField(0.5), 2)
        assert est.value == pytest.approx(E_ABS_MF_HALF_N2, abs=1e-12)

    def test_point_mass_belief_reduces_to_independent(self):
        est = expected_margin_exact(CommonBelief(PointMassZero()), 3)
        assert est.value == pytest.approx(1.5, abs=1e-12)

    def test_single_voter_margin_is_one_for_every_model(self):
        for model in (Independent(), MeanField(2.0), CommonBelief(UniformSymmetric(1.0))):
            assert expected_margin_exact(model, 1).value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "model",
        [
            Independent(),
            CommonBelief(UniformSymmetric(1.0)),
            CommonBelief(DiscreteSymmetric([(-0.6, 0.5), (0.6, 0.5)])),
            MeanField(0.7),
            MeanField(1.5),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_matches_brute_force(self, model, n):
        assert expected_margin_exact(model, n).value == pytest.approx(
            brute_force_margin(model, n), abs=1e-9
        )

    @pytest.mark.parametrize("n", [2, 6, 16, 100, 2000])
    def test_closed_form_even_population(self, n):
        assert expected_margin_exact(Independent(), n).value == pytest.approx(
            independent_abs_margin_closed_form(n), abs=1e-9
        )

    def test_monotone_approach_to_sqrt_constant(self):
        errors = [
            abs(expected_margin_exact(Independent(), n).value / math.sqrt(n) - ROOT_2_OVER_PI)
            for n in (100, 1000, 10_000)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_population_budget(self):
        with pytest.raises(ValueError):
            expected_margin_exact(Independent(), DEFAULT_POPULATION_BUDGET + 1)
        with pytest.raises(ValueError):
            expected_margin_exact(Independent(), 0)

    @pytest.mark.parametrize("coupling", [0.5, 1.5])
    def test_meanfield_takes_a_whole_float_population(self, coupling):
        assert expected_margin_exact(MeanField(coupling), 7.0) == expected_margin_exact(MeanField(coupling), 7)

    def test_metadata(self):
        est = expected_margin_exact(Independent(), 5)
        assert est.method == "exact"
        assert est.std_error == 0.0 and est.samples == 0


class TestBinomialHelpers:
    def test_windowed_sum_matches_full_sum(self):
        # the 40-sigma window must not change anything detectable
        n = 5000
        k = np.arange(n + 1)
        from scipy.stats import binom

        for p in (0.5, 0.037, 0.92):
            direct = float(np.sum(np.abs(2 * k - n) * binom.pmf(k, n, p)))
            assert binom_abs_moments(n, p)[0] == pytest.approx(direct, rel=1e-10)

    def test_mean_abs_deviation_identity(self):
        from scipy.stats import binom

        for n, p in [(10, 0.3), (101, 0.77), (1000, 0.001), (17, 0.0), (17, 1.0), (1, 0.4)]:
            k = np.arange(n + 1)
            direct = float(np.sum(np.abs(k - n * p) * binom.pmf(k, n, p)))
            assert binom_mean_abs_deviation(n, p)[0] == pytest.approx(direct, abs=1e-11)

    def test_degenerate_probabilities(self):
        # p = 0 or 1 puts all mass on one endpoint
        assert binom_abs_moments(8, 0.0)[0] == pytest.approx(8.0, abs=1e-12)
        assert binom_abs_moments(8, 1.0)[0] == pytest.approx(8.0, abs=1e-12)


class TestMonteCarlo:
    def test_independent_matches_exact(self):
        est = expected_margin_mc(Independent(), 100, 100_000, RngStream(42))
        assert est.method == "monte_carlo" and est.samples == 100_000
        assert abs(est.value - E_ABS_IND_100) <= 4 * est.std_error

    def test_meanfield_matches_exact(self):
        est = expected_margin_mc(MeanField(1.5), 500, 100_000, RngStream(43), workers=4)
        assert abs(est.value - E_ABS_MF_15_500) <= 4 * est.std_error
        assert expected_margin_exact(MeanField(1.5), 500).value == pytest.approx(
            E_ABS_MF_15_500, rel=1e-12
        )

    def test_common_belief_matches_quadrature(self):
        est = expected_margin_mc(
            CommonBelief(UniformSymmetric(1.0)), 1000, 100_000, RngStream(44)
        )
        assert abs(est.value - E_ABS_CB_U1_1000) <= 4 * est.std_error
        assert expected_margin_exact(CommonBelief(UniformSymmetric(1.0)), 1000).value == pytest.approx(
            E_ABS_CB_U1_1000, rel=1e-10
        )

    def test_gridded_belief_matches_exact(self):
        # the sampler and the exact route read one piecewise-linear density
        nodes = np.linspace(-1.0, 1.0, 9)
        model = CommonBelief(GriddedDensity(nodes, 1.0 - np.abs(nodes)))
        est = expected_margin_mc(model, 1000, 100_000, RngStream(45))
        assert abs(est.value - expected_margin_exact(model, 1000).value) <= 4 * est.std_error

    def test_deterministic_for_fixed_stream_layout(self):
        a = expected_margin_mc(Independent(), 64, 10_000, RngStream(7), workers=3)
        b = expected_margin_mc(Independent(), 64, 10_000, RngStream(7), workers=3)
        assert a == b
        c = expected_margin_mc(Independent(), 64, 10_000, RngStream(7), workers=2)
        assert c.value != a.value  # worker count is part of the key

    def test_merge_is_partition_invariant_in_mean_quality(self):
        # pooled estimate across workers must agree with exact within error
        est = expected_margin_mc(Independent(), 1000, 80_000, RngStream(3), workers=7)
        assert abs(est.value - E_ABS_IND_1000) <= 4 * est.std_error

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            expected_margin_mc(Independent(), 4, 1, RngStream(0))

    @pytest.mark.parametrize("model", [Independent(), CommonBelief(UniformSymmetric(1.0)), MeanField(0.5)])
    def test_rejects_a_fractional_population(self, model):
        # numpy's binomial draws would truncate n = 2.5 to 2
        with pytest.raises(ValueError, match="whole number"):
            expected_margin_mc(model, 2.5, 1000, RngStream(1))


class TestAsymptotic:
    def test_independent_constant(self):
        est = expected_margin_asymptotic(Independent(), 10_000)
        assert est.value == pytest.approx(ROOT_2_OVER_PI * 100.0, rel=1e-12)
        assert est.method == "asymptotic"

    def test_subcritical_meanfield(self):
        est = expected_margin_asymptotic(MeanField(0.5), 10_000)
        assert est.value == pytest.approx(112.83791670955126, rel=1e-11)

    def test_supercritical_meanfield(self):
        est = expected_margin_asymptotic(MeanField(2.0), 10_000)
        assert est.value == pytest.approx(9575.04024077, rel=1e-9)

    def test_zero_coupling_matches_independent(self):
        a = expected_margin_asymptotic(MeanField(0.0), 400).value
        b = expected_margin_asymptotic(Independent(), 400).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_critical_coupling_rejected(self):
        with pytest.raises(CriticalCouplingError):
            expected_margin_asymptotic(MeanField(1.0), 100)

    def test_common_belief_linear_regime(self):
        est = expected_margin_asymptotic(CommonBelief(UniformSymmetric(0.5)), 1000)
        assert est.value == pytest.approx(1000 * 0.25, rel=1e-12)

    def test_common_belief_degenerate_regime(self):
        est = expected_margin_asymptotic(CommonBelief(PointMassZero()), 1000)
        assert est.value == pytest.approx(ROOT_2_OVER_PI * math.sqrt(1000), rel=1e-12)


class TestDispatch:
    def test_methods(self):
        assert expected_margin(Independent(), 10, method="exact").method == "exact"
        assert (
            expected_margin(Independent(), 10, method="monte_carlo", samples=100,
                            rng=RngStream(0)).method
            == "monte_carlo"
        )
        assert expected_margin(Independent(), 10, method="asymptotic").method == "asymptotic"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            expected_margin(Independent(), 10, method="guess")

    def test_monte_carlo_needs_stream(self):
        with pytest.raises(ValueError):
            expected_margin(Independent(), 10, method="monte_carlo")


class TestClosedFormKernel:
    def test_uniform_belief_matches_beta_binomial(self):
        # under Uniform(1) the yes-count K is uniform on {0..n}
        for n in (1000, 100_000, 10**7 - 1, 10**7):
            exact = n * (n + 2) / (2 * (n + 1)) if n % 2 == 0 else (n + 1) / 2
            value = expected_margin_exact(CommonBelief(UniformSymmetric(1.0)), n).value
            assert value == pytest.approx(exact, rel=1e-12), n


class TestPopulationChecks:
    """Every route reads the population through core.check_population."""

    @pytest.mark.parametrize("n", [2.5, 0])
    @pytest.mark.parametrize("method", ["exact", "monte_carlo", "asymptotic"])
    @pytest.mark.parametrize("model", [
        Independent(), CommonBelief(UniformSymmetric(0.5)), MeanField(0.5), MeanField(1.5),
    ], ids=["independent", "common_belief", "mean_field_0.5", "mean_field_1.5"])
    def test_rejected_on_every_route(self, model, method, n):
        with pytest.raises(ValueError, match="population must be"):
            expected_margin(model, n, method=method, samples=100, rng=RngStream(0))

    @pytest.mark.parametrize("n", [2.5, 0])
    def test_asymptotic_mean_field_helper(self, n):
        with pytest.raises(ValueError, match="population must be"):
            asymptotic_weight_meanfield(0.5, n)


HAT = np.linspace(-1, 1, 21)
STATE_LAW_MODELS = {
    "independent": Independent(),
    "meanfield_0": MeanField(0.0),
    "meanfield_0.7": MeanField(0.7),
    "meanfield_1.5": MeanField(1.5),
    "point_mass": CommonBelief(PointMassZero()),
    "uniform_1": CommonBelief(UniformSymmetric(1.0)),
    "uniform_0.3": CommonBelief(UniformSymmetric(0.3)),
    "atoms_3": CommonBelief(DiscreteSymmetric([(-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)])),
    "grid_hat": CommonBelief(GriddedDensity(HAT, 1.0 - np.abs(HAT))),
}


@pytest.mark.parametrize("name", STATE_LAW_MODELS)
@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_state_law_matches_enumeration(name, n):
    """E|S|, E S^2 and every P(S = s), impossible spins included, against
    sums over all 2^n outcomes."""
    model = STATE_LAW_MODELS[name]
    outcomes = all_outcomes(n)
    probs = np.array([pmf_exact(model, o) for o in outcomes])
    totals = outcomes.sum(axis=1, dtype=np.int64)
    law = state_law(model, n)
    assert law.abs_moment() == pytest.approx(float(probs @ np.abs(totals)), rel=1e-10)
    assert law.abs_moment(power=2) == pytest.approx(float(probs @ totals**2), rel=1e-12)
    for s in range(-n - 1, n + 2):
        assert law.prob_of(s) == pytest.approx(float(probs[totals == s].sum()), rel=1e-12, abs=1e-16), s


def test_mixture_law_gives_powers_one_and_two_only():
    with pytest.raises(ValueError, match="power 1 or 2"):
        state_law(Independent(), 5).abs_moment(power=3)


@pytest.mark.parametrize("power", [0, 3, 1.5])
def test_gibbs_law_gives_powers_one_and_two_only(power):
    # the moment window's cut is bounded for s^2 at most
    with pytest.raises(ValueError, match="power 1 or 2"):
        state_law(MeanField(0.5), 5).abs_moment(power=power)


def _uniform_one_margin(n):
    """E|S| of n voters under Uniform(1), where K is uniform on 0..n:
    (n + 1)/2 for odd n and n (n + 2)/(2 (n + 1)) for even n."""
    return (n + 1) / 2 if n % 2 else n * (n + 2) / (2 * (n + 1))


@pytest.mark.parametrize("n", [10, 1001, 10**7, 10**9, 10**9 + 1])
def test_uniform_one_margin_matches_its_closed_form(n):
    value = state_law(CommonBelief(UniformSymmetric(1.0)), n).abs_moment()
    assert value == pytest.approx(_uniform_one_margin(n), rel=1e-15, abs=0)


def _hat(nodes):
    x = np.linspace(-1.0, 1.0, nodes)
    return GriddedDensity(x, 1.0 - np.abs(x))


@pytest.mark.parametrize("n", [10**3, 10**6])
def test_fine_grid_margin_equals_the_coarse_grid_of_the_same_density(n):
    # both grids describe the hat density 1 - |z| exactly
    fine = state_law(CommonBelief(_hat(2001)), n).abs_moment()
    coarse = state_law(CommonBelief(_hat(201)), n).abs_moment()
    assert fine == pytest.approx(coarse, rel=1e-14, abs=0)
