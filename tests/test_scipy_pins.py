"""The library's scipy shortcuts, pinned to the public ``scipy.stats`` calls
they replace.

The binomial kernel, the tie probability and the law of the yes-count call
the Boost ufuncs ``scipy.special._ufuncs._binom_cdf``/``_binom_sf``/
``_binom_pmf`` directly, and ``distribution_distance`` takes W1 in numpy,
so that importing the library never imports ``scipy.stats``. These tests
may import it: if a scipy release moves the private names or changes their
values, they fail here.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom, wasserstein_distance

import faircouncil
from faircouncil import (
    CommonBelief,
    DiscreteSymmetric,
    GriddedDensity,
    Independent,
    RngStream,
    UniformSymmetric,
    commonbelief,
    estimators,
    expected_margin_exact,
    measures,
    weights,
)
from faircouncil.weights import StateSpec, state_tie_probability

POPULATIONS = [1, 2, 1001, 10**7]
SUCCESS_PS = [0.0, 0.5, 0.51, 0.9, 1.0]
ATOMS = ((-0.3, 0.25), (0.3, 0.25), (0.0, 0.5))
FLAT_NODES = (-1.0, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(faircouncil.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestBinomialUfuncs:
    @pytest.mark.parametrize("module", [estimators, measures])
    @pytest.mark.parametrize("n", POPULATIONS)
    @pytest.mark.parametrize("p", SUCCESS_PS)
    def test_pmf_matches_binom_pmf(self, module, n, p):
        for k in (n // 2, math.floor(n * p)):
            assert np.array_equal(module._binom_pmf(k, n, p), binom.pmf(k, n, p))

    @pytest.mark.parametrize("n", POPULATIONS)
    @pytest.mark.parametrize("p", SUCCESS_PS)
    def test_cdf_matches_binom_cdf(self, n, p):
        for k in (n // 2, math.floor(n * p)):
            assert np.array_equal(estimators._binom_cdf(k, n, p), binom.cdf(k, n, p))

    @pytest.mark.parametrize("n", POPULATIONS)
    @pytest.mark.parametrize("p", SUCCESS_PS)
    def test_sf_matches_binom_sf(self, n, p):
        for k in (n // 2, math.floor(n * p)):
            assert np.array_equal(measures._binom_sf(k, n, p), binom.sf(k, n, p))

    @pytest.mark.parametrize("n", POPULATIONS)
    def test_vectorized_over_p(self, n):
        ps = np.array(SUCCESS_PS)
        ks = np.floor(n * ps)
        assert np.array_equal(estimators._binom_cdf(ks, n, ps), binom.cdf(ks, n, ps))
        assert np.array_equal(estimators._binom_pmf(ks, n, ps), binom.pmf(ks, n, ps))

    @pytest.mark.parametrize("n", POPULATIONS)
    def test_abs_dev_kernel_matches_scipy_stats_closed_form(self, n):
        ps = np.array(SUCCESS_PS)
        q = np.maximum(ps, 1.0 - ps)
        t = n / 2.0
        m = np.floor(t)
        tail = (t - n * q) * binom.cdf(m, n, q) + (n - m) * q * binom.pmf(m, n, q)
        assert np.array_equal(estimators.binom_abs_moments(n, ps), 2.0 * (n * q - t + 2.0 * tail))
        t = n * ps
        m = np.floor(t)
        tail = (t - n * ps) * binom.cdf(m, n, ps) + (n - m) * ps * binom.pmf(m, n, ps)
        assert np.array_equal(estimators.binom_mean_abs_deviation(n, ps), n * ps - t + 2.0 * tail)

    @pytest.mark.parametrize("model", [Independent(), CommonBelief(UniformSymmetric(1.0)),
                                       CommonBelief(DiscreteSymmetric(ATOMS))])
    def test_exact_route_rejects_a_fractional_population(self, model):
        # binom.pmf/.cdf answer nan off an integer n; the ufuncs return a number
        with pytest.raises(ValueError, match="whole number"):
            expected_margin_exact(model, 2.5)
        assert expected_margin_exact(model, 7.0) == expected_margin_exact(model, 7)

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_margin_bound_check_rejects_a_fractional_population(self, mode):
        with pytest.raises(ValueError, match="whole number"):
            commonbelief.margin_bound_check(UniformSymmetric(1.0), 2.5, mode=mode,
                                            samples=100, rng=RngStream(1))

    @pytest.mark.parametrize("n", [2, 1000, 10**7])
    def test_tie_probability_matches_binom_pmf(self, n):
        assert state_tie_probability(StateSpec("x", n, Independent())) == float(binom.pmf(n // 2, n, 0.5))

    @pytest.mark.parametrize("n", [1, 2, 25, 1001])
    def test_fair_binomial_row_matches_binom_pmf(self, n):
        k = np.arange(n + 1, dtype=float)
        assert np.array_equal(measures.count_law(Independent(), n), binom.pmf(k, n, 0.5))


class TestWasserstein:
    BELIEFS = {
        "uniform_1": UniformSymmetric(1.0),
        "atoms": DiscreteSymmetric(ATOMS),
        "grid_flat": GriddedDensity(FLAT_NODES, [0.5] * len(FLAT_NODES)),
    }

    @pytest.mark.parametrize("name", sorted(BELIEFS))
    @pytest.mark.parametrize("n", [100, 1000])
    def test_distribution_distance_matches_scipy(self, name, n):
        belief = self.BELIEFS[name]
        values, probs = commonbelief.vote_share_law(belief, n)
        mu_vals, mu_ws = commonbelief._belief_atoms(belief)
        expected = float(wasserstein_distance(values, mu_vals, probs, mu_ws))
        assert commonbelief.distribution_distance(belief, n) == expected

    def test_unsorted_and_unnormalized_laws(self):
        u, v = np.array([3.4, 3.9, 7.5, 7.8]), np.array([4.5, 1.4])
        uw, vw = np.array([1.4, 0.9, 3.1, 7.2]), np.array([3.2, 3.5])
        assert commonbelief._wasserstein_1d(u, v, uw, vw) == wasserstein_distance(u, v, uw, vw)
        atoms = np.array([0.0, 1.0])
        assert commonbelief._wasserstein_1d(atoms, atoms, np.array([3.0, 1.0]), np.array([2.0, 2.0])) == 0.25


class TestImportPath:
    def test_cli_import_leaves_scipy_stats_out(self):
        code = ("import sys, faircouncil.cli; "
                "print(','.join(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.integrate') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_cli_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "faircouncil.cli", "--help"],
                              capture_output=True, text=True, env=_subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "usage" in proc.stdout
