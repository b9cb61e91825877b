"""Exact pmfs, belief distributions, quadrature, and samplers."""

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
    belief_to_field,
    field_to_belief,
    magnetization_pmf,
    pmf_exact,
    sample,
    sample_totals,
)
from faircouncil.measures import (
    _log_binom,
    _meanfield_log_weights,
    belief_expectation,
    sample_outcomes,
    totals_sampler,
    validate_belief,
)

from oracles import all_outcomes, meanfield_pmf_by_pair_energy

# frozen by the 4-outcome enumeration oracle (unordered-pair Gibbs weight)
MF_HALF_N2_PLUSPLUS = 0.36552928931500245  # e / (2e + 2)
MF_HALF_N2_E_ABS = 1.4621171572600098  # 2e / (e + 1)

MODELS = [
    Independent(),
    CommonBelief(PointMassZero()),
    CommonBelief(UniformSymmetric(1.0)),
    CommonBelief(UniformSymmetric(0.4)),
    CommonBelief(DiscreteSymmetric([(-0.4, 0.5), (0.4, 0.5)])),
    MeanField(0.0),
    MeanField(0.7),
    MeanField(1.5),
]


class TestBeliefValidation:
    def test_uniform_range(self):
        with pytest.raises(ValueError):
            UniformSymmetric(0.0)
        with pytest.raises(ValueError):
            UniformSymmetric(1.2)

    def test_atoms_must_mirror(self):
        with pytest.raises(ValueError):
            validate_belief(DiscreteSymmetric([(0.4, 1.0)]))
        with pytest.raises(ValueError):
            validate_belief(DiscreteSymmetric([(-0.4, 0.3), (0.4, 0.7)]))
        validate_belief(DiscreteSymmetric([(0.0, 0.5), (-0.3, 0.25), (0.3, 0.25)]))

    def test_atoms_mass_and_support(self):
        with pytest.raises(ValueError):
            validate_belief(DiscreteSymmetric([(-0.4, 0.6), (0.4, 0.6)]))
        with pytest.raises(ValueError):
            validate_belief(DiscreteSymmetric([(-1.4, 0.5), (1.4, 0.5)]))

    def test_grid_symmetry_is_validated_not_imposed(self):
        nodes = np.linspace(-1, 1, 21)
        dens = np.full(21, 0.5)
        validate_belief(GriddedDensity(nodes, dens))
        skewed = dens.copy()
        skewed[0] = 0.3
        skewed[-1] = 0.7
        with pytest.raises(ValueError):
            validate_belief(GriddedDensity(nodes, skewed))

    def test_grid_mass_must_be_one(self):
        nodes = np.linspace(-1, 1, 21)
        with pytest.raises(ValueError):
            validate_belief(GriddedDensity(nodes, np.full(21, 0.4)))


class TestPmfExact:
    def test_independent_is_uniform(self):
        for outcome in ([1, 1, 1], [1, -1, 1], [-1, -1, -1]):
            assert pmf_exact(Independent(), outcome) == pytest.approx(0.125, abs=1e-15)

    def test_zero_coupling_reduces_to_independent(self):
        assert pmf_exact(MeanField(0.0), [1, -1]) == pytest.approx(0.25, abs=1e-15)

    def test_point_mass_reduces_to_independent(self):
        for n in range(1, 13):
            p = pmf_exact(CommonBelief(PointMassZero()), np.ones(n, dtype=np.int8))
            assert p == pytest.approx(0.5**n, abs=1e-14)
            p = pmf_exact(MeanField(0.0), np.ones(n, dtype=np.int8))
            assert p == pytest.approx(0.5**n, abs=1e-14)

    def test_meanfield_pair_enumeration_value(self):
        assert pmf_exact(MeanField(0.5), [1, 1]) == pytest.approx(
            MF_HALF_N2_PLUSPLUS, abs=1e-15
        )

    def test_straffin_uniform_belief_gives_flat_spin_law(self):
        # uniform belief on [-1, 1]: every outcome with k yes-votes has
        # probability 1 / ((n+1) C(n, k)), so the law of S is flat
        n = 6
        model = CommonBelief(UniformSymmetric(1.0))
        for k in range(n + 1):
            votes = np.concatenate([np.ones(k, dtype=np.int8), -np.ones(n - k, dtype=np.int8)])
            expected = 1.0 / ((n + 1) * math.comb(n, k))
            assert pmf_exact(model, votes) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("model", MODELS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_normalization_and_flip_symmetry(self, model, n):
        outcomes = all_outcomes(n)
        probs = np.array([pmf_exact(model, o) for o in outcomes])
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        flipped = np.array([pmf_exact(model, -o) for o in outcomes])
        np.testing.assert_allclose(probs, flipped, rtol=0, atol=1e-14)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            pmf_exact(Independent(), np.ones(25, dtype=np.int8))


class TestMagnetizationPmf:
    def test_zero_coupling_is_binomial(self):
        pmf = magnetization_pmf(0.0, 4)
        assert pmf.prob_of(0) == pytest.approx(6 / 16, abs=1e-14)

    def test_two_voter_oracle_values(self):
        pmf = magnetization_pmf(0.5, 2)
        assert pmf.prob_of(2) == pytest.approx(MF_HALF_N2_PLUSPLUS, abs=1e-14)
        # the tied spin value carries twice the per-outcome mass
        assert pmf.prob_of(0) == pytest.approx(2 * pmf_exact(MeanField(0.5), [1, -1]), abs=1e-14)
        assert pmf.abs_moment() == pytest.approx(MF_HALF_N2_E_ABS, abs=1e-13)

    @pytest.mark.parametrize("coupling", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("n", [6, 11, 16])
    def test_matches_pair_energy_enumeration(self, coupling, n):
        support, probs = meanfield_pmf_by_pair_energy(coupling, n)
        pmf = magnetization_pmf(coupling, n)
        assert np.array_equal(pmf.support, support)
        np.testing.assert_allclose(pmf.probs, probs, rtol=0, atol=1e-10)

    def test_supercritical_mode_location(self):
        # tanh(2 C) = C has its positive root at 0.957504...
        pmf = magnetization_pmf(2.0, 1000)
        mode = pmf.support[np.argmax(pmf.probs)] / 1000
        assert abs(abs(mode) - 0.9575) <= 0.01

    def test_symmetry_and_mass(self):
        pmf = magnetization_pmf(1.2, 51)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pmf.probs, pmf.probs[::-1], atol=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            magnetization_pmf(-0.5, 10)
        with pytest.raises(ValueError):
            magnetization_pmf(0.5, 1)


class TestFieldBeliefMap:
    def test_zero_field_zero_belief(self):
        assert field_to_belief(0.0) == 0.0

    def test_strong_field_saturates(self):
        assert field_to_belief(18.0) == pytest.approx(1.0, abs=1e-12)
        assert field_to_belief(18.0) < 1.0

    def test_unit_field(self):
        assert field_to_belief(1.0) == pytest.approx(0.7615941559557649, abs=1e-14)

    def test_roundtrip(self):
        for z in (-0.999, -0.42, 0.0, 0.3, 0.9):
            assert field_to_belief(belief_to_field(z)) == pytest.approx(z, abs=1e-12)

    def test_monotone(self):
        hs = np.linspace(-5, 5, 41)
        zs = [field_to_belief(h) for h in hs]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_inverse_rejects_endpoints(self):
        for z in (1.0, -1.0, 1.3):
            with pytest.raises(ValueError):
                belief_to_field(z)


class TestBeliefExpectation:
    def test_uniform_polynomial_is_exact(self):
        # integral of z^2 over uniform [-a, a] is a^2 / 3
        for a in (1.0, 0.35):
            val = belief_expectation(UniformSymmetric(a), np.square)
            assert val == pytest.approx(a * a / 3.0, rel=1e-12)

    def test_asymmetric_integrand(self):
        # E exp(z) over uniform [-1, 1] = sinh(1)
        val = belief_expectation(UniformSymmetric(1.0), np.exp)
        assert val == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_gridded_trapezoid(self):
        nodes = np.linspace(-1, 1, 201)
        dens = 1.0 - np.abs(nodes)
        g = GriddedDensity(nodes, dens)
        val = belief_expectation(g, np.square)
        # trapezoid value of an exact 1/6 integral on this grid
        assert val == pytest.approx(1.0 / 6.0, abs=1e-3)


class TestSamplers:
    def test_sample_is_reproducible(self):
        for model in MODELS:
            a = sample(model, 40, RngStream(21, 2))
            b = sample(model, 40, RngStream(21, 2))
            assert np.array_equal(a, b)
            assert set(np.unique(a)) <= {-1, 1}

    def test_large_population_mean_is_centered(self):
        totals = sample_totals(Independent(), 10**6, 10_000, RngStream(5))
        mean = totals.mean()
        stderr = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(mean) <= 4 * stderr

    def test_common_belief_pair_covariance(self):
        # two fixed voters under the flat belief are correlated with
        # E(X_i X_j) = second moment of the belief = 1/3
        draws = sample_outcomes(CommonBelief(UniformSymmetric(1.0)), 1000, 20_000, RngStream(6))
        products = draws[:, 0].astype(float) * draws[:, 1].astype(float)
        stderr = products.std(ddof=1) / math.sqrt(len(products))
        assert abs(products.mean() - 1.0 / 3.0) <= 4 * stderr

    def test_supercritical_samples_are_bimodal(self):
        totals = sample_totals(MeanField(1.5), 1000, 4000, RngStream(7))
        shares = totals / 1000.0
        assert (shares > 0.5).any() and (shares < -0.5).any()
        # |share| concentrates near the fixed point 0.858559...
        spread = np.abs(shares)
        stderr = spread.std(ddof=1) / math.sqrt(len(spread))
        assert abs(spread.mean() - 0.8586) <= max(4 * stderr, 0.005)

    @pytest.mark.parametrize(
        "model",
        [Independent(), CommonBelief(UniformSymmetric(1.0)), MeanField(1.2)],
        ids=str,
    )
    def test_outcome_frequencies_match_pmf(self, model):
        n, draws = 4, 200_000
        outcomes = sample_outcomes(model, n, draws, RngStream(30))
        codes = ((outcomes > 0) << np.arange(n)).sum(axis=1)
        counts = np.bincount(codes, minlength=2**n)
        space = all_outcomes(n)
        space_codes = ((space > 0) << np.arange(n)).sum(axis=1)
        for code, outcome in zip(space_codes, space):
            p = pmf_exact(model, outcome)
            stderr = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[code] / draws - p) <= 5 * stderr

    def test_gridded_sampler_moments(self):
        nodes = np.linspace(-1, 1, 201)
        dens = 1.0 - np.abs(nodes)
        g = GriddedDensity(nodes, dens)
        from faircouncil.measures import sample_belief

        zs = sample_belief(g, RngStream(8).generator(), 200_000)
        # exact moments of the piecewise-linear hat: E|z| = 1/3, E z^2 = 1/6
        assert abs(zs.mean()) <= 4 * zs.std(ddof=1) / math.sqrt(len(zs))
        assert np.abs(zs).mean() == pytest.approx(1.0 / 3.0, abs=0.004)
        assert (zs**2).mean() == pytest.approx(1.0 / 6.0, abs=0.004)


class TestTotalsSampler:
    @pytest.mark.parametrize("coupling", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 7, 1001, 10**5])
    def test_meanfield_draws_match_choice(self, coupling, n):
        # the sampler inverts the law's cdf exactly as Generator.choice does
        pmf = magnetization_pmf(coupling, n)
        gen_a = RngStream(40, n).generator()
        gen_b = RngStream(40, n).generator()
        expected = gen_a.choice(pmf.support, p=pmf.probs, size=5000)
        drawn = totals_sampler(MeanField(coupling), n)(gen_b, 5000)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, expected)
        # and leaves the generator where choice leaves it
        assert np.array_equal(gen_a.random(8), gen_b.random(8))

    @pytest.mark.parametrize("coupling", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 7, 1001, 10**5])
    def test_meanfield_log_weights_match_log_binomial(self, coupling, n):
        s = 2.0 * np.arange(n + 1) - n
        reference = _log_binom(n, np.arange(n + 1)) + coupling * s**2 / (2.0 * (n - 1))
        assert np.array_equal(_meanfield_log_weights(coupling, n), reference)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            totals_sampler(MeanField(1.0), 0)
