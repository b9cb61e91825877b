"""Fixed point, asymptotic branches, and power-law fits."""

import math

import pytest

from faircouncil import (
    CommonBelief,
    Independent,
    MeanField,
    RngStream,
    StraffinFamily,
    asymptotic_weight_meanfield,
    expected_margin_exact,
    scaling_fit,
    solve_cj,
)
from faircouncil.meanfield import (
    CriticalCouplingError,
    SubcriticalCouplingError,
    fit_power_law,
)

GRID = [2**e for e in range(8, 15)]


class TestSolveCj:
    @pytest.mark.parametrize("coupling", [1.01, 1.1, 1.5, 2.0, 5.0, 10.0])
    def test_residual(self, coupling):
        c = solve_cj(coupling)
        assert 0.0 < c < 1.0
        assert abs(math.tanh(coupling * c) - c) <= 1e-12

    def test_known_values(self):
        assert solve_cj(2.0) == pytest.approx(0.957504024077, abs=1e-9)
        assert solve_cj(1.5) == pytest.approx(0.858559636640, abs=1e-9)

    def test_vanishes_at_the_transition(self):
        assert solve_cj(1.01) < 0.2

    def test_monotone_and_saturating(self):
        values = [solve_cj(j) for j in (1.01, 1.1, 1.5, 2.0, 5.0, 10.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999999

    @pytest.mark.parametrize("coupling", [1.0, 0.8, 0.0, -2.0])
    def test_subcritical_rejected(self, coupling):
        with pytest.raises(SubcriticalCouplingError):
            solve_cj(coupling)

    @pytest.mark.parametrize("coupling", [20.0, 1e300])
    def test_saturated_coupling(self, coupling):
        # tanh(J) rounds to 1 above J ~ 18.7, so the bracket closes at f(1) = 0
        c, residual, iterations = solve_cj(coupling, full_output=True)
        assert abs(c - 1.0) <= 1e-15
        assert abs(residual) <= 1e-12
        assert iterations >= 50

    def test_full_output(self):
        c, residual, iterations = solve_cj(3.0, full_output=True)
        assert abs(residual) <= 1e-12
        assert iterations >= 50


class TestAsymptoticWeight:
    def test_zero_coupling(self):
        est = asymptotic_weight_meanfield(0.0, 10_000)
        assert est.value == pytest.approx(79.78845608028654, rel=1e-12)

    def test_subcritical(self):
        est = asymptotic_weight_meanfield(0.75, 10_000)
        assert est.value == pytest.approx(159.57691216057308, rel=1e-12)

    def test_supercritical(self):
        est = asymptotic_weight_meanfield(2.0, 1000)
        assert est.value == pytest.approx(957.504024077, rel=1e-9)

    def test_critical_rejected(self):
        with pytest.raises(CriticalCouplingError):
            asymptotic_weight_meanfield(1.0, 100)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_weight_meanfield(-0.5, 100)

    @pytest.mark.parametrize("coupling", [0.5, 1.5])
    def test_exact_to_asymptotic_ratio_approaches_one(self, coupling):
        gaps = []
        for n in (1000, 10_000, 100_000):
            exact = expected_margin_exact(MeanField(coupling), n).value
            asym = asymptotic_weight_meanfield(coupling, n).value
            gaps.append(abs(exact / asym - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-4


class TestScalingFit:
    def test_independent_square_root(self):
        fit = scaling_fit(lambda n: Independent(), GRID)
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.r_squared > 0.999

    def test_supercritical_linear(self):
        fit = scaling_fit(lambda n: MeanField(1.5), GRID)
        assert fit.exponent == pytest.approx(1.0, abs=0.05)

    def test_straffin_interpolates(self):
        family = StraffinFamily(1.0, 0.25)
        fit = scaling_fit(lambda n: CommonBelief(family(n)), GRID)
        assert fit.exponent == pytest.approx(0.75, abs=0.07)

    def test_grid_recorded_and_prediction(self):
        fit = scaling_fit(lambda n: Independent(), [64, 256, 1024])
        assert [n for n, _ in fit.grid] == [64, 256, 1024]
        n, margin = fit.grid[-1]
        assert fit.predicted(n) == pytest.approx(margin, rel=0.02)

    def test_monte_carlo_mode(self):
        fit = scaling_fit(
            lambda n: Independent(), [64, 256, 1024],
            estimator_mode="monte_carlo", samples=40_000, rng=RngStream(2), workers=2,
        )
        assert fit.exponent == pytest.approx(0.5, abs=0.05)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            scaling_fit(lambda n: Independent(), [64, 128])
        with pytest.raises(ValueError):
            fit_power_law([10, 10, 10], [1, 1, 1])

    def test_includes_critical_point_grids(self):
        # exact computation is fine at J = 1 even though no asymptotic exists
        fit = scaling_fit(lambda n: MeanField(1.0), [256, 512, 1024])
        assert 0.5 < fit.exponent < 1.0
