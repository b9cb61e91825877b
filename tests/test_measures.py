"""Exact pmfs, belief distributions, quadrature, and samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, gammaln, logsumexp

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
from faircouncil import measures
from faircouncil.commonbelief import vote_share_law
from faircouncil.measures import (
    GUIDE_MAX_BUCKETS,
    _checked_belief,
    _enumeration_law,
    _guide_table,
    _log_binom,
    _meanfield_log_weights,
    belief_expectation,
    belief_sampler,
    count_law,
    sample_belief,
    sample_outcomes,
    state_law,
    totals_sampler,
    validate_belief,
)
from faircouncil.weights import StateSpec, _state_moments

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

    @pytest.mark.parametrize("belief", [
        DiscreteSymmetric([(0.0, math.nan)]),
        DiscreteSymmetric([(math.nan, 1.0)]),
        DiscreteSymmetric([(-0.3, math.nan), (0.3, math.nan)]),
        GriddedDensity([-1.0, 0.0, 1.0], [math.nan] * 3),
        GriddedDensity([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0]),
        GriddedDensity([-1.0, math.nan, 1.0], [0.5] * 3),
    ], ids=["atom-weight", "atom-value", "mirrored-weights", "densities",
            "middle-density", "node"])
    def test_nan_fails_validation(self, belief):
        with pytest.raises(ValueError):
            validate_belief(belief)

    @pytest.mark.parametrize("other", [Independent(), 0.5, {"type": "uniform"}],
                             ids=["model", "float", "dict"])
    def test_non_belief_is_a_type_error(self, other):
        with pytest.raises(TypeError, match="not a belief distribution"):
            validate_belief(other)

    def test_belief_is_validated_once_and_returned_as_given(self):
        belief = DiscreteSymmetric([(-0.3, 0.5), (0.3, 0.5)])
        validate_belief(belief)
        before = _checked_belief.cache_info()
        twin = DiscreteSymmetric([(-0.3, 0.5), (0.3, 0.5)])
        assert validate_belief(twin) is twin
        assert _checked_belief.cache_info().hits == before.hits + 1


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

    def test_overflowing_coupling_raises(self):
        # J s^2 overflows once J N^2 passes about 1.8e308; the window and the
        # full law read the same log-weights, so both refuse
        with pytest.raises(ValueError, match=r"overflow at J = 1e\+308, N = 1001"):
            magnetization_pmf(1e308, 1001)
        with pytest.raises(ValueError, match=r"overflow at J = 1e\+306, N = 24"):
            pmf_exact(MeanField(1e306), [1] * 24)
        assert magnetization_pmf(1e300, 1001).abs_moment() == 1001.0
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            magnetization_pmf(math.nan, 1001)

    @pytest.mark.parametrize("coupling", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 1001, 10**5])
    def test_log_weights_at_chosen_counts_match_the_full_table(self, coupling, n):
        k = np.union1d(np.arange((n + 1) // 2, n + 1, math.isqrt(n)), n)
        assert np.array_equal(_meanfield_log_weights(coupling, n, k),
                              _meanfield_log_weights(coupling, n)[k])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 4.0), st.integers(2, 3000))
    def test_window_law_matches_full_law(self, coupling, n):
        pmf = magnetization_pmf(coupling, n)
        logw = _meanfield_log_weights(coupling, n)
        full = np.exp(logw - logsumexp(logw))
        shown = full >= 1e-300
        # the full law subtracts log-gamma terms up to gammaln(n + 1) + J n / 2
        # in size, so its own rounding adds a few ulps of that to the 1e-12
        rtol = 1e-12 + 4 * np.finfo(float).eps * (gammaln(n + 1.0) + coupling * n / 2)
        assert np.all(np.abs(pmf.probs[shown] - full[shown]) <= rtol * full[shown])
        assert np.array_equal(pmf.probs, pmf.probs[::-1])
        assert abs(pmf.probs.sum() - 1.0) <= 1e-14
        for s in {0, 1, 2, n - 1, n, -n}:
            on_support = (s + n) % 2 == 0
            direct = pmf.probs[(s + n) // 2] if on_support else 0.0
            assert pmf.prob_of(s) == pytest.approx(direct, rel=1e-14, abs=0.0)
        spins = np.abs(pmf.support.astype(float))
        for power in (1, 2):
            direct = float(np.sum(spins**power * pmf.probs))
            assert pmf.abs_moment(power=power) == pytest.approx(direct, rel=1e-14)


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

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_sample_is_one_row_of_sample_outcomes(self, model, n):
        one, rows = RngStream(8, n), RngStream(8, n)
        assert np.array_equal(sample(model, n, one), sample_outcomes(model, n, 1, rows)[0])
        assert one.generator().random() == rows.generator().random()

    @pytest.mark.parametrize("model", [Independent(), CommonBelief(UniformSymmetric(0.5))])
    @pytest.mark.parametrize("n, message", [(0, ">= 1"), (2.5, "whole number")])
    def test_outcome_samplers_check_the_population(self, model, n, message):
        with pytest.raises(ValueError, match=message):
            sample(model, n, RngStream(1))
        with pytest.raises(ValueError, match=message):
            sample_outcomes(model, n, 3, RngStream(1))

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

    @pytest.mark.parametrize("coupling, n, first_draws", [
        (0.5, 1001, [23, 27, -25, 17, 49, -61, -25, -45, -57, -19,
                     -3, -3, -65, -63, 29, 1, 69, 91, 109, 27]),
        (1.0, 100_000, [3778, 4220, -4044, 2818, 7252, -8566, -4138, -6742, -8134, -3218,
                        -414, -554, -8864, -8746, 4676, 132, 9378, 11208, 12594, 4208]),
        (1.5, 1_000_001, [858387, 858465, -858433, 858207, 858965, -859191, -858449,
                          -858881, -859115, -858285, -857431, -857525, -859243, -859223,
                          858541, 857107, 859335, 859689, 859983, 858461]),
    ])
    def test_meanfield_draws_are_pinned(self, coupling, n, first_draws):
        # frozen from the sampler over the full-length law, before the law
        # kept only its mass window
        gen = RngStream(46, 1).generator()
        assert totals_sampler(MeanField(coupling), n)(gen, 20).tolist() == first_draws

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            totals_sampler(MeanField(1.0), 0)


def _window_cdf(coupling, n):
    spins, mass = magnetization_pmf(coupling, n).window()
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    return spins, mass, cdf


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


class TestGuideTable:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 4.0), st.integers(2, 2 * 10**5), st.integers(0, 2**32 - 1))
    def test_draws_equal_the_plain_inverse_cdf(self, coupling, n, seed):
        spins, _, cdf = _window_cdf(coupling, n)
        gen_a, gen_b = RngStream(seed).generator(), RngStream(seed).generator()
        drawn = totals_sampler(MeanField(coupling), n)(gen_a, 20_000)
        assert np.array_equal(drawn, spins[cdf.searchsorted(gen_b.random(20_000), side="right")])
        assert np.array_equal(gen_a.random(8), gen_b.random(8))

    def test_dyadic_cdf_on_bucket_edges(self):
        # MeanField(0) at n = 2 is Binomial(2, 1/2): cdf 0.25, 0.75, 1.0,
        # each value on a bucket edge of the 32-bucket table
        spins, mass, cdf = _window_cdf(0.0, 2)
        assert cdf.tolist() == [0.25, 0.75, 1.0]
        buckets, table = _guide_table(cdf, mass.max())
        assert buckets == 32
        below = np.nextafter([0.25, 0.75, 1.0], 0.0)
        u = np.concatenate([[0.0, 0.25, 0.5, 0.75], below, np.arange(32) / 32.0])
        drawn = totals_sampler(MeanField(0.0), 2)(_FixedUniforms(u), u.size)
        assert np.array_equal(drawn, spins[cdf.searchsorted(u, side="right")])
        assert drawn[:4].tolist() == [-2, 0, 0, 2]
        assert drawn[4:7].tolist() == [-2, 0, 2]

    def test_capped_table_falls_back_to_search(self):
        spins, mass, cdf = _window_cdf(1.0, 224_431)
        buckets, table = _guide_table(cdf, mass.max())
        assert buckets == GUIDE_MAX_BUCKETS < 16 / mass.max()
        u = RngStream(3).generator().random(50_000)
        assert (table[(u * buckets).astype(np.intp)] < 0).any()
        drawn = totals_sampler(MeanField(1.0), 224_431)(RngStream(3).generator(), 50_000)
        assert np.array_equal(drawn, spins[cdf.searchsorted(u, side="right")])

    @pytest.mark.parametrize("n, searched", [(224_431, 0.05), (10**6, 0.2)])
    def test_single_value_buckets_draw_what_choice_draws(self, n, searched):
        # at J = 1 the 2^16 cap binds; a bucket that one cdf value splits
        # takes one comparison, and only those that two or more split are
        # searched (36% and 89% of the buckets when every split one was)
        _, mass, cdf = _window_cdf(1.0, n)
        buckets, table = _guide_table(cdf, mass.max())
        assert buckets == GUIDE_MAX_BUCKETS
        assert (table < 0).mean() < searched
        pmf = magnetization_pmf(1.0, n)
        gen_a, gen_b = RngStream(48, n).generator(), RngStream(48, n).generator()
        expected = gen_a.choice(pmf.support, p=pmf.probs, size=200_000)
        drawn = totals_sampler(MeanField(1.0), n)(gen_b, 200_000)
        assert np.array_equal(drawn, expected)
        assert np.array_equal(gen_a.random(8), gen_b.random(8))

    @pytest.mark.parametrize("coupling, n", [(0.0, 2), (0.5, 1001), (1.0, 224_431),
                                             (1.5, 10**6), (4.0, 10**7)])
    def test_table_is_small_int32(self, coupling, n):
        _, mass, cdf = _window_cdf(coupling, n)
        buckets, table = _guide_table(cdf, mass.max())
        assert table.dtype == np.int32
        assert table.size == buckets <= GUIDE_MAX_BUCKETS
        # every unambiguous bucket holds the search result at its lower edge
        edges = np.arange(buckets) / buckets
        sure = table >= 0
        assert np.array_equal(table[sure], cdf.searchsorted(edges[sure], side="right"))


SAMPLER_BELIEFS = {
    "point_mass": PointMassZero(),
    "uniform": UniformSymmetric(0.6),
    "atoms": DiscreteSymmetric([(-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)]),
    "grid": GriddedDensity([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 0.5, 0.0]),
}


def _grid_cdf(belief, z):
    """Cdf of the piecewise-linear density through the grid's nodes."""
    x, d = np.array(belief.nodes), np.array(belief.densities)
    cell = np.clip(np.searchsorted(x, z, side="right") - 1, 0, x.size - 2)
    full = np.concatenate([[0.0], np.cumsum(np.diff(x) * (d[:-1] + d[1:]) / 2.0)])
    t = z - x[cell]
    slope = (d[cell + 1] - d[cell]) / (x[cell + 1] - x[cell])
    return (full[cell] + d[cell] * t + slope * t**2 / 2.0) / full[-1]


class TestBeliefSampler:
    """A belief's sampler is built once; chunk by chunk it draws what the
    per-call ``sample_belief`` draws and leaves the generator where it does."""

    @pytest.mark.parametrize("name", list(SAMPLER_BELIEFS))
    def test_draws_and_generator_state(self, name):
        belief = SAMPLER_BELIEFS[name]
        draw = belief_sampler(belief)
        gen = RngStream(44, 1).generator()
        ref = RngStream(44, 1).generator()
        for size in (1, 10, 1000):
            got = draw(gen, size)
            if name == "point_mass":
                assert np.array_equal(got, np.zeros(size))
            elif name == "uniform":
                assert np.array_equal(got, ref.uniform(-0.6, 0.6, size))
            elif name == "atoms":
                expected = ref.choice([-0.5, 0.0, 0.5], p=[0.25, 0.5, 0.25], size=size)
                assert np.array_equal(got, expected)
            else:
                # inverse cdf of one uniform per draw
                assert np.max(np.abs(_grid_cdf(belief, got) - ref.random(size))) <= 1e-12
        assert np.array_equal(gen.random(8), ref.random(8))

    def test_grid_draws_are_pinned(self):
        # frozen from the per-call sampler that rebuilt the cell cdf each time
        gen = RngStream(44, 1).generator()
        draw = belief_sampler(SAMPLER_BELIEFS["grid"])
        assert draw(gen, 1).tolist() == [0.4025612357702667]
        assert sample_belief(SAMPLER_BELIEFS["grid"], gen, 4).tolist() == [
            0.3706222766941403, -0.4363775960934577, -0.22909811758057586, 0.2473530611758884]

    @pytest.mark.parametrize("name", list(SAMPLER_BELIEFS))
    def test_totals_sampler_draws_belief_then_binomial(self, name):
        belief = SAMPLER_BELIEFS[name]
        n = 1001
        draw = totals_sampler(CommonBelief(belief), n)
        gen = RngStream(45, 2).generator()
        ref = RngStream(45, 2).generator()
        for size in (1, 10, 1000):
            zs = sample_belief(belief, ref, size)
            expected = 2 * ref.binomial(n, (1.0 + zs) / 2.0).astype(np.int64) - n
            assert np.array_equal(draw(gen, size), expected)
        assert np.array_equal(gen.random(8), ref.random(8))


def _votes(n, k):
    return np.concatenate([np.ones(k, dtype=np.int8), -np.ones(n - k, dtype=np.int8)])


class TestCountLaw:
    """One law of the yes-count per (model, n), read by every enumeration
    route, checked against references built without it."""

    def test_hat_grid_pmf_matches_per_cell_gauss_legendre(self):
        # the piecewise-linear hat times a degree-n polynomial is of degree
        # n + 1 on each cell, integrated exactly by 12 >= n/2 + 1 nodes
        n = 16
        nodes = np.linspace(-1, 1, 201)
        dens = 1.0 - np.abs(nodes)
        model = CommonBelief(GriddedDensity(nodes, dens))
        x, w = np.polynomial.legendre.leggauss(12)
        lo, hi = nodes[:-1, None], nodes[1:, None]
        z = lo + (hi - lo) * (x + 1.0) / 2.0
        rho = dens[:-1, None] + (dens[1:, None] - dens[:-1, None]) * (z - lo) / (hi - lo)
        for k in range(n + 1):
            f = ((1.0 + z) / 2.0) ** k * ((1.0 - z) / 2.0) ** (n - k)
            reference = float(np.sum(w * (hi - lo) / 2.0 * rho * f))
            assert pmf_exact(model, _votes(n, k)) == pytest.approx(reference, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a", [0.1, 0.5])
    @pytest.mark.parametrize("n", [5, 12, 24])
    def test_uniform_belief_matches_incomplete_beta(self, a, n):
        # p = (1 + z)/2 is uniform on [p0, p1]: P(K = k) is the difference of
        # regularized incomplete betas over (n + 1) a, taken on the side of
        # the tail (I_p(x, y) = 1 - I_{1-p}(y, x)) so that it does not cancel
        k = np.arange(n + 1)
        p0, p1 = (1.0 - a) / 2.0, (1.0 + a) / 2.0
        lower = betainc(k + 1, n - k + 1, p1) - betainc(k + 1, n - k + 1, p0)
        upper = betainc(n - k + 1, k + 1, 1.0 - p0) - betainc(n - k + 1, k + 1, 1.0 - p1)
        closed = np.where(k <= n / 2, upper, lower) / ((n + 1) * a)
        model = CommonBelief(UniformSymmetric(a))
        np.testing.assert_allclose(count_law(model, n), closed, rtol=1e-12, atol=0)
        pmfs = [pmf_exact(model, _votes(n, j)) * math.comb(n, j) for j in range(n + 1)]
        np.testing.assert_allclose(pmfs, closed, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_point_mass_belief_gives_the_independent_law(self, n):
        assert np.array_equal(count_law(CommonBelief(PointMassZero()), n), count_law(Independent(), n))

    def test_invalid_models_raise_before_the_cache(self):
        bad_grid = CommonBelief(GriddedDensity(np.linspace(-1, 1, 21), np.full(21, 0.4)))
        for route in (pmf_exact, lambda m, o: count_law(m, len(o))):
            with pytest.raises(TypeError, match="not a belief distribution"):
                route(CommonBelief([1, 2]), [1, -1])
            with pytest.raises(ValueError, match="gridded density integrates to"):
                route(bad_grid, [1, -1])
        with pytest.raises(ValueError, match="limited to N <= 24"):
            pmf_exact(MeanField(0.5), np.ones(25, dtype=np.int8))

    def test_cached_law_is_read_only(self):
        law = _enumeration_law(MeanField(0.7), 6)
        assert not law.flags.writeable
        with pytest.raises(ValueError):
            law[0] = 1.0
        assert pmf_exact(MeanField(0.7), _votes(6, 0)) == law[0]

    def test_vote_share_law_bypasses_the_cache(self):
        before = _enumeration_law.cache_info()
        vote_share_law(UniformSymmetric(1.0), 1000)
        assert _enumeration_law.cache_info() == before

    def test_samplers_still_validate_the_belief(self):
        bad = CommonBelief(DiscreteSymmetric([(0.4, 1.0)]))
        with pytest.raises(ValueError, match="lacks a mirror"):
            sample(bad, 5, RngStream(1))
        with pytest.raises(ValueError, match="lacks a mirror"):
            sample_outcomes(bad, 5, 3, RngStream(1))


def test_magnetization_pmf_equality_is_identity():
    # an array field makes field-wise equality ambiguous, so laws compare by identity
    law = magnetization_pmf(1.0, 10)
    assert (law == magnetization_pmf(1.0, 10)) is False
    assert law == law


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**6])
def test_independent_voters_are_the_point_mass_belief(n):
    # so is a single mean-field voter, who has no pair to couple
    models = [Independent(), CommonBelief(PointMassZero())]
    if n == 1:
        models += [MeanField(0.0), MeanField(0.8), MeanField(1.5)]
    triples, laws, draws, states = [], [], [], []
    for model in models:
        triples.append(_state_moments(StateSpec("s", n, model)))
        laws.append(count_law(model, n).tobytes())
        gen = RngStream(17).generator()
        draws.append(totals_sampler(model, n)(gen, 2000).tobytes())
        states.append(repr(gen.bit_generator.state))
    for values in (triples, laws, draws, states):
        assert all(v == values[0] for v in values)


LAW_MODELS = {
    "independent": Independent(),
    **{name: CommonBelief(belief) for name, belief in SAMPLER_BELIEFS.items()},
    "meanfield": MeanField(1.2),
}


@pytest.mark.parametrize("n", [1, 2, 1000, 1001])
@pytest.mark.parametrize("name", list(LAW_MODELS))
def test_totals_sampler_is_the_state_laws_sampler(name, n):
    # n = 1 takes a single mean-field voter to the point-mass mixture
    model = LAW_MODELS[name]
    gen, ref = RngStream(19, n).generator(), RngStream(19, n).generator()
    drawn = totals_sampler(model, n)(gen, 500)
    assert np.array_equal(drawn, state_law(model, n).sampler()(ref, 500))
    assert gen.random() == ref.random()


def test_count_law_of_the_gibbs_law_builds_no_window(monkeypatch):
    # the definition-level law stays apart from the windowed magnetization law
    def refuse(*args):
        raise AssertionError("count_law built the magnetization window")

    monkeypatch.setattr(measures, "magnetization_pmf", refuse)
    law = count_law(MeanField(1.0), 20)
    assert law.size == 21
    assert abs(law.sum() - 1.0) <= 1e-12
