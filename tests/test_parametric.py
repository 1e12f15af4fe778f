"""Plug-in and unbiased parametric estimator risk."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad as scipy_quad

from substreams import substream

from normrisk.bandwidth import (
    optimal_bandwidth_constant,
    real_mise_exact,
    real_mise_nested,
    rule_of_thumb,
)
from normrisk.case_studies import LognormalParams, lognormal_mse_parametric
from normrisk.kernels import (
    EPANECHNIKOV_KERNEL,
    NORMAL_KERNEL,
    exact_mse_kernel,
    mise_closed_epan_kernel,
)
from normrisk.numerics import NumericsError, integrate, scaled_chi_pdf
from normrisk.parametric import (
    MiseReport,
    NormalParams,
    PLUGIN_AMISE_CONSTANT,
    PluginEstimate,
    STD_NORMAL,
    asymptotic_mise_general,
    asymptotic_mise_plugin,
    asymptotic_mse_plugin,
    conditional_moments,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
    plugin_density,
    plugin_mise_coefficient,
    shrink_factor,
    shrunk_mise,
    umvu_density,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)

# exact benchmark MISE values, frozen from 40-digit quadrature of the same
# integral with an independent integrator
BENCHMARK_EXACT = {
    3: 0.2323351102,
    4: 0.1182959777,
    5: 0.07969415257,
    10: 0.03043874207,
    14: 0.02038172549,
    100: 0.002515840363,
    1000: 0.0002472999443,
}


def phi(x):
    return PHI0 * np.exp(-0.5 * x * x)


class TestPluginDensity:
    def test_at_center(self):
        est = PluginEstimate(mu_hat=0.7, sigma_hat=1.0)
        assert plugin_density(0.7, est) == pytest.approx(PHI0, rel=1e-14)

    def test_standardized_offset(self):
        est = PluginEstimate(mu_hat=-1.0, sigma_hat=2.5)
        assert plugin_density(-1.0 + 2.0 * 2.5, est) == pytest.approx(phi(2.0) / 2.5, rel=1e-14)

    def test_normalizes(self):
        est = PluginEstimate(mu_hat=0.3, sigma_hat=1.7)
        total = integrate(lambda x: plugin_density(x, est), -40.0, 40.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            PluginEstimate(mu_hat=0.0, sigma_hat=0.0)


class TestAsymptoticRisk:
    def test_center_value(self):
        # y = 0: only the scale-noise part contributes, phi(0)^2 / 2
        val = asymptotic_mse_plugin(0.0, STD_NORMAL, 25)
        assert val == pytest.approx(PHI0 * PHI0 * 0.5 / 25.0, rel=1e-13)

    def test_one_sigma_value(self):
        # y = 1: the scale part vanishes, phi(1)^2 remains
        val = asymptotic_mse_plugin(1.0, STD_NORMAL, 25)
        assert val == pytest.approx(phi(1.0) ** 2 / 25.0, rel=1e-13)

    def test_scale_structure(self):
        p = NormalParams(2.0, 3.0)
        y = 0.8
        lhs = asymptotic_mse_plugin(p.mu + y * p.sigma, p, 12)
        rhs = asymptotic_mse_plugin(y, STD_NORMAL, 12) / p.sigma**2
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_mise_constant(self):
        assert asymptotic_mise_plugin(STD_NORMAL, 1000) == pytest.approx(
            PLUGIN_AMISE_CONSTANT / 1000.0, rel=1e-14
        )
        assert asymptotic_mise_plugin(NormalParams(0.0, 2.0), 10) == pytest.approx(
            0.5 * asymptotic_mise_plugin(STD_NORMAL, 10), rel=1e-14
        )

    def test_mise_is_integral_of_mse(self):
        n = 7
        val, _ = scipy_quad(
            lambda x: asymptotic_mse_plugin(x, STD_NORMAL, n), -np.inf, np.inf, epsabs=1e-12
        )
        assert val == pytest.approx(asymptotic_mise_plugin(STD_NORMAL, n), abs=1e-9)


class TestConditionalMoments:
    def test_closed_values(self):
        mean, second = conditional_moments(0.0, 10, 1.0)
        assert mean == pytest.approx(math.sqrt(10.0 / 11.0) / math.sqrt(2.0 * math.pi), rel=1e-13)
        assert second == pytest.approx(math.sqrt(10.0 / 12.0) / (2.0 * math.pi), rel=1e-13)

    def test_second_moment_dominates(self):
        for x in (-1.5, 0.0, 2.0):
            for z in (0.5, 1.0, 2.0):
                mean, second = conditional_moments(x, 8, z)
                assert second >= mean * mean

    def test_gaussian_shift_identity_special_case(self):
        # E exp(-(N+a)^2/2) at a = 0 equals 1/sqrt(2)
        val, _ = scipy_quad(
            lambda v: math.exp(-0.5 * v * v) * phi(v), -np.inf, np.inf, epsabs=1e-13
        )
        assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.45, 0.1, 1.0, 2.9])
    @pytest.mark.parametrize("a", [0.0, 0.7, 3.0])
    def test_gaussian_shift_identity_grid(self, t, a):
        val = integrate(
            lambda v: np.exp(-0.5 * t * (v + a) ** 2 - 0.5 * v * v) * PHI0,
            -40.0,
            40.0,
        )
        closed = (1.0 + t) ** -0.5 * math.exp(-0.5 * a * a * t / (1.0 + t))
        assert val == pytest.approx(closed, abs=1e-10)


class TestExactMse:
    def test_symmetry(self):
        p = NormalParams(1.2, 0.8)
        for d in (0.3, 1.1, 2.4):
            left = exact_mse_plugin(p.mu - d, p, 9)
            right = exact_mse_plugin(p.mu + d, p, 9)
            assert left.mse == pytest.approx(right.mse, rel=1e-11)

    def test_scale_equivariance(self):
        y = 0.6
        p = NormalParams(-2.0, 3.5)
        std = exact_mse_plugin(y, STD_NORMAL, 11)
        gen = exact_mse_plugin(p.mu + y * p.sigma, p, 11)
        assert gen.mse == pytest.approx(std.mse / p.sigma**2, rel=1e-10)
        assert gen.bias == pytest.approx(std.bias / p.sigma, rel=1e-10)

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            exact_mse_plugin(0.0, STD_NORMAL, 2)

    def test_against_simulation(self):
        # one million replicates of the estimator value at the center
        n, B = 20, 10**6
        rng = substream(314159, 0)
        truth = phi(0.0)
        sq_err_sum = 0.0
        sq_err_sq_sum = 0.0
        chunk = 100_000
        for _ in range(B // chunk):
            draws = rng.standard_normal((chunk, n))
            mu_hat = draws.mean(axis=1)
            sd_hat = draws.std(axis=1, ddof=1)
            fhat = np.exp(-0.5 * (mu_hat / sd_hat) ** 2) * PHI0 / sd_hat
            err2 = (fhat - truth) ** 2
            sq_err_sum += err2.sum()
            sq_err_sq_sum += (err2**2).sum()
        mc_mse = sq_err_sum / B
        mc_se = math.sqrt((sq_err_sq_sum / B - mc_mse**2) / B)
        exact = exact_mse_plugin(0.0, STD_NORMAL, n).mse
        assert abs(exact - mc_mse) < 3.0 * mc_se

    @pytest.mark.parametrize("n", [3, 14, 1000])
    def test_array_matches_pointwise(self, n):
        p = NormalParams(0.4, 1.3)
        xs = np.linspace(-5.0, 5.0, 41)
        arr = exact_mse_plugin(xs, p, n)
        each = np.array([exact_mse_plugin(float(x), p, n) for x in xs])
        assert arr.mse.shape == arr.bias.shape == xs.shape
        assert np.abs(np.array(arr).T - each).max() < 1e-13
        assert isinstance(exact_mse_plugin(0.3, p, n).mse, float)

    @pytest.mark.parametrize("x", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [3, 4])
    def test_second_moment_against_scipy(self, n, x):
        # the merged integral starts the second moment at z_lo, not at 0,
        # where its integrand is O(1) at n = 3 and O(z) at n = 4
        reference, _ = scipy_quad(
            lambda z: conditional_moments(x, n, z)[1] * scaled_chi_pdf(n, z),
            0.0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=200,
        )
        parts = exact_mse_plugin(x, STD_NORMAL, n)
        second = parts.variance + (parts.bias + phi(x)) ** 2
        assert abs(second - reference) <= 1e-12

    @pytest.mark.parametrize(
        "x, reference",
        # the variance at n = 1000, by 40-digit mpmath quadrature of the two
        # conditional moments against the scaled-chi density
        [(0.0, "0.00007979679831218696273667126"), (1.5, "0.00005081530516452839864974716")],
    )
    def test_large_n_variance_against_mpmath(self, x, reference):
        # the variance is the difference of two moments near 0.16 and 0.0016:
        # a second moment summed in log space with the whole O(n) scaled-chi
        # constant was 4.6e-11 relative off at x = 0
        variance = exact_mse_plugin(x, STD_NORMAL, 1000).variance
        assert abs(variance / float(reference) - 1.0) <= 2.5e-11

    def test_fubini_consistency(self):
        for n in (5, 10, 20):
            mise = exact_mise_plugin(STD_NORMAL, n).value
            total = integrate(
                lambda x: exact_mse_plugin(x, STD_NORMAL, n).mse, -9.0, 9.0,
            )
            assert total == pytest.approx(mise, abs=2e-6)


class TestExactMise:
    @pytest.mark.parametrize("n", sorted(BENCHMARK_EXACT))
    def test_frozen_values(self, n):
        report = exact_mise_plugin(STD_NORMAL, n)
        assert report.method == "quadrature"
        assert report.value == pytest.approx(BENCHMARK_EXACT[n], abs=2e-9)

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_large_n_against_oracle(self, n):
        # the 40-digit values the benchmark checks its large-n table against
        oracle = json.loads((Path(__file__).parents[1] / "bench" / "oracle.json").read_text())
        reference = oracle["table"][str(n)]["plugin_mise"]
        assert exact_mise_plugin(STD_NORMAL, n).value == pytest.approx(reference, rel=1e-10, abs=0)

    def test_scale_equivariance(self):
        p = NormalParams(5.0, 0.25)
        assert exact_mise_plugin(p, 8).value == pytest.approx(
            exact_mise_plugin(STD_NORMAL, 8).value / p.sigma, rel=1e-12
        )

    def test_coefficient_monotone_decreasing(self):
        values = [plugin_mise_coefficient(n) for n in range(3, 201)]
        diffs = np.diff(values)
        assert np.all(diffs < 0)

    def test_coefficient_limit(self):
        # n * sigma * MISE approaches the asymptotic constant from above
        exact = 1000.0 * exact_mise_plugin(STD_NORMAL, 1000).value
        assert exact > PLUGIN_AMISE_CONSTANT
        assert (exact - PLUGIN_AMISE_CONSTANT) / PLUGIN_AMISE_CONSTANT < 0.004


class TestUmvu:
    def test_zero_outside_support(self):
        est = PluginEstimate(0.0, 1.0)
        n = 10
        edge = (n - 1) / math.sqrt(n)
        assert umvu_density(edge + 1e-9, est, n) == 0.0
        assert umvu_density(-edge - 0.5, est, n) == 0.0
        assert umvu_density(0.99 * edge, est, n) > 0.0

    def test_indicator_case(self):
        # n = 4: flat at height Gamma(1.5)/(sqrt(pi)*Gamma(1)) * 2/3 = 1/3
        est = PluginEstimate(0.0, 1.0)
        assert umvu_density(0.0, est, 4) == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert umvu_density(1.2, est, 4) == pytest.approx(1.0 / 3.0, rel=1e-13)
        with pytest.raises(ValueError):
            umvu_density(0.0, est, 3)

    def test_unbiasedness_by_simulation(self):
        n, B = 10, 10**5
        rng = substream(271828, 0)
        draws = rng.standard_normal((B, n))
        mu_hat = draws.mean(axis=1)
        sd_hat = draws.std(axis=1, ddof=1)
        for x in (0.0, 1.0):
            vals = np.array(
                [umvu_density(x, PluginEstimate(m, s), n) for m, s in zip(mu_hat, sd_hat)]
            )
            se = vals.std(ddof=1) / math.sqrt(B)
            assert abs(vals.mean() - phi(x)) < 3.0 * se

    def test_close_to_plugin_for_large_n(self):
        est = PluginEstimate(0.0, 1.0)
        xs = np.linspace(-2.0, 2.0, 81)
        gap = np.abs(umvu_density(xs, est, 1000) - plugin_density(xs, est))
        assert gap.max() < 1e-2

    def test_mise_infinite_at_three(self):
        report = exact_mise_umvu(STD_NORMAL, 3)
        assert math.isinf(report.value)
        assert report.method == "closed_form"
        with pytest.raises(ValueError):
            exact_mise_umvu(STD_NORMAL, 2)

    def test_mise_ratios(self):
        for n, expected in ((4, 1.50947), (10, 1.03754)):
            ratio = exact_mise_umvu(STD_NORMAL, n).value / exact_mise_plugin(STD_NORMAL, n).value
            assert ratio == pytest.approx(expected, abs=1e-4)

    def test_ratio_above_one_and_decreasing(self):
        ns = [4, 5, 7, 10, 20, 50, 100, 400, 1000]
        ratios = [
            exact_mise_umvu(STD_NORMAL, n).value / exact_mise_plugin(STD_NORMAL, n).value
            for n in ns
        ]
        assert all(r > 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_mise_scales(self):
        p = NormalParams(1.0, 4.0)
        assert exact_mise_umvu(p, 12).value == pytest.approx(
            exact_mise_umvu(STD_NORMAL, 12).value / 4.0, rel=1e-13
        )

    def test_numpy_integer_n_does_not_overflow(self):
        # (n - 1)(n - 3) passes 2**63 here
        n = 4 * 10**9
        assert exact_mise_umvu(STD_NORMAL, np.int64(n)).value == exact_mise_umvu(STD_NORMAL, n).value

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_large_n_ratio_against_oracle(self, n):
        # a sum of O(log n) logs that cancel to O(1/n) was 1.1e-9 off at 10^6
        oracle = json.loads((Path(__file__).parents[1] / "bench" / "oracle.json").read_text())
        reference = oracle["table"][str(n)]["umvu_ratio"]
        ratio = exact_mise_umvu(STD_NORMAL, n).value / exact_mise_plugin(STD_NORMAL, n).value
        assert ratio == pytest.approx(reference, rel=1e-10, abs=0)


class TestShrinkage:
    def test_no_noise_edge(self):
        assert shrink_factor(0.0, 0.5) == 1.0
        assert shrunk_mise(0.0, 0.5) == 0.0

    def test_benchmark_example(self):
        r_f = 1.0 / (2.0 * math.sqrt(math.pi))
        assert shrink_factor(0.03044, r_f) == pytest.approx(0.9026, abs=5e-5)
        assert shrunk_mise(0.03044, r_f) == pytest.approx(0.02748, abs=5e-6)

    @given(st.floats(1e-12, 1e3), st.floats(1e-6, 1e3))
    def test_strict_improvement(self, mise, r_f):
        assert shrunk_mise(mise, r_f) < mise
        assert 0.0 < shrink_factor(mise, r_f) < 1.0

    def test_infinite_mise_limit(self):
        assert shrunk_mise(math.inf, 0.3) == 0.3
        assert shrink_factor(math.inf, 0.3) == 0.0


def _normal_family_density(x, theta):
    mu, sigma = theta
    return phi((x - mu) / sigma) / sigma


def _normal_family_score(x, theta):
    mu, sigma = theta
    y = (x - mu) / sigma
    return np.array([y / sigma, (y * y - 1.0) / sigma])


class TestGeneralTraceFormula:
    def test_normal_family_reproduces_constant(self):
        val = asymptotic_mise_general(
            _normal_family_score, _normal_family_density, (0.0, 1.0), support=(-12.0, 12.0)
        )
        assert val == pytest.approx(PLUGIN_AMISE_CONSTANT, abs=1e-8)

    def test_location_only_family(self):
        val = asymptotic_mise_general(
            lambda x, th: np.array([x - th[0]]),
            lambda x, th: phi(x - th[0]),
            (0.0,),
            support=(-12.0, 12.0),
        )
        assert val == pytest.approx(0.5 / (2.0 * math.sqrt(math.pi)), abs=1e-9)

    def test_singular_information_rejected(self):
        # duplicated parameter: score components collinear, J singular
        def density(x, theta):
            return phi(x - theta[0] - theta[1])

        def score(x, theta):
            s = x - theta[0] - theta[1]
            return np.array([s, s])

        with pytest.raises(NumericsError):
            asymptotic_mise_general(score, density, (0.0, 0.0), support=(-10.0, 10.0))


class TestMiseReportType:
    def test_validation(self):
        with pytest.raises(ValueError):
            MiseReport(value=-0.1, method="quadrature")
        with pytest.raises(ValueError):
            MiseReport(value=0.1, method="guesswork")
        with pytest.raises(ValueError):
            MiseReport(value=0.1, method="monte_carlo", std_error=-1.0)


class TestNormalParams:
    @pytest.mark.parametrize(
        "mu,sigma",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)],
    )
    def test_rejects_non_finite_and_nonpositive(self, mu, sigma):
        with pytest.raises(ValueError):
            NormalParams(mu, sigma)


class TestSampleSizeBoundary:
    # one shared check rejects a non-integer n in every module
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: exact_mise_plugin(STD_NORMAL, n),
            lambda n: exact_mise_umvu(STD_NORMAL, n),
            lambda n: exact_mse_plugin(0.5, STD_NORMAL, n),
            lambda n: asymptotic_mise_plugin(STD_NORMAL, n),
            lambda n: umvu_density(0.0, PluginEstimate(0.0, 1.0), n),
            lambda n: real_mise_exact(rule_of_thumb(NORMAL_KERNEL, 10), n),
            lambda n: real_mise_nested(rule_of_thumb(EPANECHNIKOV_KERNEL, 10), n),
            lambda n: optimal_bandwidth_constant(NORMAL_KERNEL, n),
            lambda n: mise_closed_epan_kernel(n, 1.0),
            lambda n: exact_mse_kernel(NORMAL_KERNEL, 0.0, STD_NORMAL, n, 0.5),
            lambda n: lognormal_mse_parametric(LognormalParams(0.0, 0.5), n),
            lambda n: scaled_chi_pdf(n, 1.0),
        ],
    )
    @pytest.mark.parametrize("n", [10.5, 10.0, math.nan])
    def test_non_integer_rejected(self, call, n):
        with pytest.raises(ValueError, match="sample size n must be an integer"):
            call(n)

    def test_numpy_integer_accepted(self):
        assert exact_mise_plugin(STD_NORMAL, np.int64(10)) == exact_mise_plugin(STD_NORMAL, 10)
