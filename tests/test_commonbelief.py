"""Belief functionals, regime classification, bounds, and convergence."""

import math

import numpy as np
import pytest

from faircouncil import (
    CommonBelief,
    DiscreteSymmetric,
    GriddedDensity,
    PointMassZero,
    RngStream,
    StraffinFamily,
    UniformSymmetric,
    classify_regime,
    distribution_distance,
    margin_bound_check,
    mu_bar,
    second_moment,
)
from faircouncil.commonbelief import VOTE_SHARE_MAX_N, _belief_atoms, vote_share_law
from faircouncil.estimators import expected_margin_exact, expected_margin_mc
from faircouncil.measures import belief_expectation, pmf_exact
from faircouncil.weights import StateSpec, state_tie_probability

from oracles import all_outcomes

BELIEF_SET = [
    PointMassZero(),
    UniformSymmetric(1.0),
    UniformSymmetric(0.5),
    DiscreteSymmetric([(-0.4, 0.5), (0.4, 0.5)]),
    DiscreteSymmetric([(-0.5, 0.5), (0.5, 0.5)]),
]


class TestMuBar:
    def test_flat_belief(self):
        assert mu_bar(UniformSymmetric(1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_point_mass(self):
        assert mu_bar(PointMassZero()) == 0.0

    def test_atoms(self):
        assert mu_bar(DiscreteSymmetric([(-0.4, 0.5), (0.4, 0.5)])) == pytest.approx(0.4)

    def test_matches_quadrature(self):
        for a in (0.3, 0.75, 1.0):
            direct = float(belief_expectation(UniformSymmetric(a), np.abs))
            assert mu_bar(UniformSymmetric(a)) == pytest.approx(direct, rel=1e-11)

    def test_gridded(self):
        nodes = np.linspace(-1, 1, 401)
        dens = 1.0 - np.abs(nodes)
        assert mu_bar(GriddedDensity(nodes, dens)) == pytest.approx(1.0 / 3.0, abs=1e-4)


class TestSecondMoment:
    def test_flat_belief(self):
        assert second_moment(UniformSymmetric(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_point_mass_is_uncorrelated(self):
        assert second_moment(PointMassZero()) == 0.0

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.9])
    def test_scaling(self, a):
        assert second_moment(UniformSymmetric(a)) == pytest.approx(a * a / 3.0, rel=1e-12)
        direct = float(belief_expectation(UniformSymmetric(a), np.square))
        assert second_moment(UniformSymmetric(a)) == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize(
        "belief,expected",
        [
            (PointMassZero(), 0.0),
            (UniformSymmetric(1.0), 1.0 / 3.0),
            (DiscreteSymmetric([(-0.4, 0.5), (0.4, 0.5)]), 0.16),
        ],
        ids=["point", "flat", "atoms"],
    )
    def test_equals_pairwise_covariance_from_pmf(self, belief, expected):
        # E(X_1 X_2) under the mixture, by 2^n enumeration
        n = 6
        model = CommonBelief(belief)
        cov = 0.0
        for outcome in all_outcomes(n):
            cov += pmf_exact(model, outcome) * float(outcome[0]) * float(outcome[1])
        assert cov == pytest.approx(expected, abs=1e-9)
        assert second_moment(belief) == pytest.approx(expected, abs=1e-12)


class TestStraffinFamily:
    def test_half_width_clamped(self):
        fam = StraffinFamily(c=3.0, beta=0.5)
        assert fam.half_width(2) == 1.0
        assert fam.half_width(10_000) == pytest.approx(0.03)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            StraffinFamily(c=0.0, beta=0.5)
        with pytest.raises(ValueError):
            StraffinFamily(c=1.0, beta=-0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c", "beta"])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StraffinFamily(**{"c": 1.0, "beta": 0.5, field: value})


class TestClassifyRegime:
    GRID = [2**e for e in range(8, 15)]

    def test_slow_decay_is_linear(self):
        report = classify_regime(StraffinFamily(1.0, 0.25), 0.1, self.GRID)
        assert report.verdict == "linear"
        assert report.weight_exponent == pytest.approx(0.75, abs=1e-9)

    def test_fast_decay_is_square_root(self):
        report = classify_regime(StraffinFamily(1.0, 1.0), 0.1, self.GRID)
        assert report.verdict == "square_root"
        assert report.weight_exponent == 0.5

    def test_constant_belief_is_linear_with_unit_exponent(self):
        report = classify_regime(StraffinFamily(1.0, 0.0), 0.1, self.GRID)
        assert report.verdict == "linear"
        assert report.weight_exponent == pytest.approx(1.0, abs=1e-12)

    def test_band_is_reported_as_boundary(self):
        report = classify_regime(StraffinFamily(1.0, 0.5), 0.1, self.GRID)
        assert report.verdict == "boundary"
        assert report.weight_exponent is None

    def test_degenerate_family_is_square_root(self):
        report = classify_regime(lambda n: PointMassZero(), 0.1, self.GRID)
        assert report.verdict == "square_root"

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            classify_regime(StraffinFamily(1.0, 0.5), 0.0, self.GRID)
        with pytest.raises(ValueError):
            classify_regime(StraffinFamily(1.0, 0.5), 0.1, [])


class TestMarginBounds:
    def test_flat_belief_gap_within_bound(self):
        report = margin_bound_check(UniformSymmetric(1.0), 100)
        assert abs(report.mean_margin_fraction - 0.5) <= 0.1
        assert report.sandwich_ok and report.coupling_ok

    def test_point_mass_small_population(self):
        report = margin_bound_check(PointMassZero(), 4)
        assert report.mean_margin_fraction == pytest.approx(0.375, abs=1e-12)
        assert report.sandwich_gap == pytest.approx(0.375, abs=1e-12)
        assert report.bound == 0.5

    @pytest.mark.parametrize("belief", BELIEF_SET, ids=str)
    def test_sandwich_and_coupling_hold(self, belief):
        for n in (100, 1000, 10_000):
            report = margin_bound_check(belief, n)
            assert report.sandwich_ok, (belief, n, report)
            assert report.coupling_ok, (belief, n, report)

    def test_gaps_shrink_like_inverse_sqrt(self):
        gaps = [margin_bound_check(UniformSymmetric(1.0), n).sandwich_gap
                for n in (100, 1000, 10_000)]
        # shrink at least as fast as 1/sqrt(N) along a x10 grid
        assert gaps[1] <= gaps[0] / math.sqrt(10.0) * 1.05
        assert gaps[2] <= gaps[1] / math.sqrt(10.0) * 1.05

    def test_monte_carlo_mode(self):
        from faircouncil import RngStream

        report = margin_bound_check(UniformSymmetric(1.0), 500, mode="monte_carlo",
                                    samples=50_000, rng=RngStream(12))
        assert report.sandwich_ok and report.coupling_ok

    @pytest.mark.parametrize("belief", [UniformSymmetric(1.0), DiscreteSymmetric([(-0.3, 0.5), (0.3, 0.5)])],
                             ids=["uniform", "atoms"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_mean_margin_is_the_estimator_route(self, belief, workers):
        n, samples = 500, 20_000
        mc = margin_bound_check(belief, n, "monte_carlo", samples, RngStream(12), workers)
        route = expected_margin_mc(CommonBelief(belief), n, samples, RngStream(12), workers)
        assert mc.mean_margin_fraction == route.value / n
        exact = margin_bound_check(belief, n, "exact")
        assert exact.mean_margin_fraction == expected_margin_exact(CommonBelief(belief), n).value / n

    def test_asymptotic_route_is_not_a_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            margin_bound_check(UniformSymmetric(1.0), 10, mode="asymptotic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            margin_bound_check(UniformSymmetric(1.0), 10, mode="guess")


class TestVoteShareLaw:
    def test_flat_belief_gives_flat_law(self):
        values, probs = vote_share_law(UniformSymmetric(1.0), 40)
        np.testing.assert_allclose(probs, np.full(41, 1.0 / 41.0), atol=1e-9)
        assert values[0] == -1.0 and values[-1] == 1.0

    def test_population_above_the_cap_is_refused(self):
        # about 55 bytes per voter at peak: the check comes before any allocation
        assert VOTE_SHARE_MAX_N == 10**7
        with pytest.raises(ValueError, match=f"limited to N <= {VOTE_SHARE_MAX_N}"):
            vote_share_law(UniformSymmetric(0.5), VOTE_SHARE_MAX_N + 1)

    @pytest.mark.parametrize("n, message", [(2.5, "whole number"), (0, ">= 1"), (-3, ">= 1")])
    def test_population_is_checked(self, n, message):
        with pytest.raises(ValueError, match=message):
            vote_share_law(UniformSymmetric(0.5), n)
        with pytest.raises(ValueError, match=message):
            distribution_distance(PointMassZero(), n)

    def test_point_mass_is_binomial(self):
        values, probs = vote_share_law(PointMassZero(), 10)
        expected = np.array([math.comb(10, k) for k in range(11)]) / 2.0**10
        np.testing.assert_allclose(probs, expected, atol=1e-12)


class TestDistributionDistance:
    @pytest.mark.parametrize("belief", BELIEF_SET, ids=str)
    def test_bounded_by_inverse_sqrt(self, belief):
        for n in (100, 1000, 10_000):
            assert distribution_distance(belief, n) <= 1.0 / math.sqrt(n)

    def test_point_mass_large_population(self):
        assert distribution_distance(PointMassZero(), 10_000) <= 0.01

    def test_atoms_large_population(self):
        belief = DiscreteSymmetric([(-0.5, 0.5), (0.5, 0.5)])
        assert distribution_distance(belief, 10_000) <= 0.01

    def test_strictly_decreasing_for_flat_belief(self):
        ds = [distribution_distance(UniformSymmetric(1.0), n) for n in (100, 1000, 10_000)]
        assert ds[0] > ds[1] > ds[2]

    def test_gridded_density_within_bound(self):
        nodes = np.linspace(-1, 1, 41)
        g = GriddedDensity(nodes, 1.0 - np.abs(nodes))
        for n in (100, 1000):
            assert distribution_distance(g, n) <= 1.0 / math.sqrt(n)

    def test_point_mass_distance_is_mean_abs_share(self):
        # transport to a point mass is the mean absolute vote share
        from faircouncil import Independent, expected_margin_exact

        n = 500
        d = distribution_distance(PointMassZero(), n)
        assert d == pytest.approx(expected_margin_exact(Independent(), n).value / n, rel=1e-9)


class TestFlatLawUniformity:
    def test_equal_windows_carry_equal_mass(self):
        # under the flat belief any two equal-length windows of vote shares
        # carry the same mass up to lattice effects
        n = 2000
        values, probs = vote_share_law(UniformSymmetric(1.0), n)
        width = 0.92
        reference = probs[(values >= 0.06) & (values <= 0.98)].sum()
        for lo in (-1.0, -0.7, -0.35, 0.0, 0.05):
            window = probs[(values >= lo) & (values <= lo + width)].sum()
            assert abs(window - reference) < 3.0 / math.sqrt(n)


class TestFlatGridIsUniform:
    """The flat 11-node grid on [-1, 1] is Uniform(1) as a piecewise-linear
    density; its exact routes must give the beta-binomial values."""

    FLAT = GriddedDensity(np.linspace(-1.0, 1.0, 11), np.full(11, 0.5))

    def test_second_moment(self):
        assert second_moment(self.FLAT) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_margin_and_tie(self, n):
        model = CommonBelief(self.FLAT)
        # S/2 + N/2 is uniform on 0..N
        margin = n * (n + 2) / (2 * (n + 1))
        assert expected_margin_exact(model, n).value == pytest.approx(margin, rel=1e-12)
        tie = state_tie_probability(StateSpec("g", n, model))
        assert tie == pytest.approx(1.0 / (n + 1), rel=1e-12)

    @pytest.mark.parametrize("n", [10, 1000])
    def test_vote_share_law(self, n):
        _, probs = vote_share_law(self.FLAT, n)
        assert np.max(np.abs(probs * (n + 1) - 1.0)) < 1e-10


class TestGridMomentsClosedForm:
    """A grid's E|Z| and E Z^2 are polynomial integrals of its
    piecewise-linear density, taken per cell with no quadrature ladder."""

    def test_hat_grid(self):
        nodes = np.linspace(-1.0, 1.0, 201)
        hat = GriddedDensity(nodes, 1.0 - np.abs(nodes))
        assert abs(mu_bar(hat) - 1.0 / 3.0) <= 1e-15
        assert abs(second_moment(hat) - 1.0 / 6.0) <= 1e-15

    def test_uneven_grid_matches_the_ladder(self):
        nodes = np.array([-1.0, -0.7, -0.31, -0.05, 0.0, 0.05, 0.31, 0.7, 1.0])
        dens = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.8, 0.3, 0.9, 0.1])
        belief = GriddedDensity(nodes, dens / np.trapezoid(dens, nodes))
        ladder_abs = float(belief_expectation(belief, np.abs))
        ladder_sq = float(belief_expectation(belief, np.square))
        assert mu_bar(belief) == pytest.approx(ladder_abs, rel=1e-12, abs=0)
        assert second_moment(belief) == pytest.approx(ladder_sq, rel=1e-12, abs=0)


def _grid_atoms_by_cell(belief, per_cell):
    """Transport atoms of a gridded belief, one cell at a time."""
    nodes, dens = np.array(belief.nodes), np.array(belief.densities)
    mids, masses = [], []
    for i in range(nodes.size - 1):
        sub = np.linspace(nodes[i], nodes[i + 1], per_cell + 1)
        d = np.interp(sub, nodes, dens)
        mids.append((sub[:-1] + sub[1:]) / 2.0)
        masses.append(np.diff(sub) * (d[:-1] + d[1:]) / 2.0)
    masses = np.concatenate(masses)
    return np.concatenate(mids), masses / masses.sum()


@pytest.mark.parametrize("nodes", [np.linspace(-1, 1, 11), np.linspace(-1, 1, 201),
                                   [-0.9, -0.35, -0.02, 0.0, 0.02, 0.35, 0.9]])
def test_grid_transport_atoms_match_the_per_cell_loop(nodes):
    nodes = np.asarray(nodes)
    dens = 1.0 - np.abs(nodes)
    belief = GriddedDensity(nodes, dens / np.trapezoid(dens, nodes))
    mids, masses = _belief_atoms(belief)
    ref_mids, ref_masses = _grid_atoms_by_cell(belief, max(1, 8192 // (nodes.size - 1)))
    assert np.array_equal(mids, ref_mids) and np.array_equal(masses, ref_masses)


def _coupling_reference(belief, n, points=8):
    """E|S - N Z|/N with one Gauss-Legendre panel between successive kinks
    z = 2m/N - 1 of the kernel 2 E|K - Np|, and between the belief's nodes."""
    from scipy.special import roots_legendre

    from faircouncil.estimators import binom_mean_abs_deviation

    if isinstance(belief, UniformSymmetric):
        nodes, dens = np.array([-belief.a, belief.a]), np.full(2, 0.5 / belief.a)
    else:
        nodes, dens = np.array(belief.nodes), np.array(belief.densities)
    kinks = 2.0 * np.arange(n + 1) / n - 1.0
    edges = np.union1d(nodes, kinks[(kinks > nodes[0]) & (kinks < nodes[-1])])
    x, w = roots_legendre(points)
    lo, hi = edges[:-1, None], edges[1:, None]
    z = (lo + (hi - lo) * (x + 1.0) / 2.0).ravel()
    weights = (w * (hi - lo) / 2.0).ravel() * np.interp(z, nodes, dens)
    return float(np.sum(weights * 2.0 * binom_mean_abs_deviation(n, (1.0 + z) / 2.0))) / n


@pytest.mark.parametrize("n", [1, 10, 101, 1000, 3163, 10**4])
@pytest.mark.parametrize("belief", [
    UniformSymmetric(1.0),
    UniformSymmetric(0.1),
    GriddedDensity(np.linspace(-1.0, 1.0, 11), [0.5] * 11),
    GriddedDensity(np.linspace(-1.0, 1.0, 201), 1.0 - np.abs(np.linspace(-1.0, 1.0, 201))),
], ids=["uniform_1", "uniform_0.1", "flat_11", "hat_201"])
def test_coupling_gap_matches_a_panel_per_kink(belief, n):
    gap = margin_bound_check(belief, n).coupling_gap
    assert gap == pytest.approx(_coupling_reference(belief, n), rel=5e-6, abs=0)
