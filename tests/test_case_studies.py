"""Lognormal mean crossover and the skew-extended normal constant."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import log_ndtr

from estimators import lognormal_variance_ratio_limit
from substreams import substream

from normrisk import case_studies
from normrisk.case_studies import (
    CrossoverResult,
    LognormalParams,
    lognormal_crossover,
    lognormal_mse_nonparametric,
    lognormal_mse_parametric,
    _normal_point_score,
    _skew_normal_information,
    skew_normal_asymptotic_mise,
)
from normrisk.numerics import NumericsError
from normrisk.parametric import PLUGIN_AMISE_CONSTANT

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def phi(x):
    return PHI0 * np.exp(-0.5 * np.asarray(x) ** 2)


CROSSOVERS = {0.2: 312, 0.4: 87, 0.6: 45, 0.8: 31, 1.0: 25, 1.2: 22}
# small spreads, beyond the published ones: crossovers of the exact MSE
# formulas evaluated at 50 digits with mpmath; at b = 0.004 and 0.005 the two
# MSEs at the crossover differ by 1.4e-17 and 5.4e-17 relative, under an ulp
SMALL_SPREAD_CROSSOVERS = {0.004: 750012, 0.005: 480012, 0.01: 120012, 0.05: 4812, 0.1: 1212}


class TestLognormalMse:
    def test_sample_mean_formula(self):
        p = LognormalParams(0.0, 1.0)
        expected = math.e * (math.e - 1.0) / 10.0
        assert lognormal_mse_nonparametric(p, 10) == pytest.approx(expected, rel=1e-14)

    def test_small_spread_expansion(self):
        # MSE / b^2 tends to exp(2a)/n as the log spread vanishes
        a, n = 0.3, 7
        b = 1e-4
        val = lognormal_mse_nonparametric(LognormalParams(a, b), n) / (b * b)
        assert val == pytest.approx(math.exp(2.0 * a) / n, rel=1e-6)

    def test_sample_mean_against_simulation(self):
        a, b, n, B = 0.0, 0.5, 20, 10**6
        p = LognormalParams(a, b)
        rng = substream(5150, 0)
        draws = np.exp(a + b * rng.standard_normal((B, n)))
        err2 = (draws.mean(axis=1) - p.mean) ** 2
        se = err2.std(ddof=1) / math.sqrt(B)
        assert abs(err2.mean() - lognormal_mse_nonparametric(p, n)) < 3.0 * se

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)])
    def test_params_reject_non_finite(self, a, b):
        with pytest.raises(ValueError):
            LognormalParams(a, b)

    @pytest.mark.parametrize(
        "p,n", [(LognormalParams(0.0, 20.0), 1011), (LognormalParams(400.0, 1.0), 25)]
    )
    def test_overflowing_mse_raises(self, p, n):
        for mse in (lognormal_mse_nonparametric, lognormal_mse_parametric):
            with pytest.raises(NumericsError, match="overflows a double"):
                mse(p, n)

    def test_infinite_parametric_mse_at_a_far_log_mean(self):
        # an MSE that does not exist stays infinite wherever the log mean is
        assert lognormal_mse_parametric(LognormalParams(-1e308, 1.0), 2) == math.inf

    @pytest.mark.parametrize("b", [40.0, 1e100, 1e200])
    def test_sample_mean_mse_overflows_at_wide_spreads(self, b):
        # at b = 1e200, where `b ** 2` raised a bare OverflowError, b b is inf
        # and the exponent 2 b^2 + log((1 - e^-b^2)/b^2) is inf - inf
        with pytest.raises(NumericsError, match="overflows a double"):
            lognormal_mse_nonparametric(LognormalParams(0.0, b), 10)

    @pytest.mark.parametrize("b", [40.0, 1e100, 1e200])
    def test_parametric_mse_infinite_at_wide_spreads(self, b):
        assert lognormal_mse_parametric(LognormalParams(0.0, b), 10) == math.inf

    def test_mean(self):
        assert LognormalParams(0.3, 0.5).mean == math.exp(0.3 + 0.125)
        for b in (40.0, 1e200):
            with pytest.raises(NumericsError, match="the mean overflows a double"):
                LognormalParams(0.0, b).mean

    def test_parametric_blows_up_below_threshold(self):
        assert lognormal_mse_parametric(LognormalParams(0.0, 1.0), 2) == math.inf
        # b exactly at the existence boundary is still infinite
        assert lognormal_mse_parametric(LognormalParams(0.0, math.sqrt(2.0)), 5) == math.inf

    def test_parametric_against_simulation(self):
        a, b, n, B = 0.0, 0.5, 100, 10**6
        p = LognormalParams(a, b)
        rng = substream(8086, 0)
        chunk = 100_000
        total = 0.0
        total_sq = 0.0
        for _ in range(B // chunk):
            logs = a + b * rng.standard_normal((chunk, n))
            a_hat = logs.mean(axis=1)
            b2_hat = logs.var(axis=1, ddof=1)
            est = np.exp(a_hat + 0.5 * b2_hat)
            e2 = (est - p.mean) ** 2
            total += e2.sum()
            total_sq += (e2**2).sum()
        mc = total / B
        se = math.sqrt((total_sq / B - mc * mc) / B)
        assert abs(mc - lognormal_mse_parametric(p, n)) < 3.0 * se

    def test_variance_ratio_limit(self):
        b = 1.0
        lim = lognormal_variance_ratio_limit(b)
        assert lim == pytest.approx((math.e - 1.0) / 1.5, rel=1e-14)
        assert lim > 1.0
        p = LognormalParams(0.0, b)
        n = 10**5
        finite = lognormal_mse_nonparametric(p, n) / lognormal_mse_parametric(p, n)
        assert abs(finite - lim) / lim < 0.01


class TestCrossover:
    @pytest.mark.parametrize("b,n0", sorted(CROSSOVERS.items()))
    def test_published_values(self, b, n0):
        assert lognormal_crossover(b).n_crossover == n0

    @pytest.mark.parametrize("b", sorted(CROSSOVERS))
    def test_crossover_is_sharp(self, b):
        n0 = lognormal_crossover(b).n_crossover
        p = LognormalParams(0.0, b)
        assert lognormal_mse_nonparametric(p, n0) <= lognormal_mse_parametric(p, n0)
        assert lognormal_mse_nonparametric(p, n0 + 1) > lognormal_mse_parametric(p, n0 + 1)

    @pytest.mark.parametrize("b", [0.4, 1.0])
    def test_advantage_grows_past_crossover(self, b):
        n0 = lognormal_crossover(b).n_crossover
        p = LognormalParams(0.0, b)
        ratios = [
            lognormal_mse_nonparametric(p, n) / lognormal_mse_parametric(p, n)
            for n in range(n0 + 1, n0 + 101)
        ]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("b,n0", sorted(SMALL_SPREAD_CROSSOVERS.items()))
    def test_small_spreads(self, b, n0):
        assert lognormal_crossover(b).n_crossover == n0

    def test_scan_starts_where_the_plugin_mse_is_finite(self, monkeypatch):
        # the plug-in MSE is infinite up to n = 2 b^2 + 1, so the scan starts
        # at floor(2 b^2): at b = 630 it once stepped through all of 996k
        # sizes from n = 2, and the crossover is the one that scan found
        calls = []
        parts = case_studies._parametric_parts
        monkeypatch.setattr(case_studies, "_parametric_parts", lambda b2, n: calls.append(n) or parts(b2, n))
        n0 = lognormal_crossover(630.0).n_crossover
        assert n0 == 996233
        assert len(calls) <= n0 - math.floor(2.0 * 630.0**2) + 202

    @pytest.mark.parametrize("b", [700.0, 1e100, 1e200])
    def test_no_crossover_below_the_largest_n(self, b):
        # b^2 overflows a double at b = 1e200, where `b ** 2` once raised a
        # bare OverflowError
        with pytest.raises(NumericsError, match="no crossover found below n=1000000"):
            lognormal_crossover(b)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            CrossoverResult(log_sd=0.5, n_crossover=0)


class TestLognormalAgainstMpmath:
    """Both exact MSE formulas at 50 digits, where the spread is small and
    the float forms used to cancel."""

    @staticmethod
    def exact(b, n):
        # both MSEs at log mean 0, in mpmath's working precision
        b2 = mpmath.mpf(b) ** 2
        m = mpmath.mpf(n - 1)
        nonparametric = mpmath.exp(b2) * mpmath.expm1(b2) / n
        parametric = mpmath.exp(b2 / n) * (
            mpmath.exp(b2 / n) * (1 - 2 * b2 / m) ** (-m / 2) - (1 - b2 / m) ** (-m)
        )
        return nonparametric, parametric

    @pytest.mark.parametrize(
        "b,n", [(0.01, 120012), (0.05, 4812), (0.1, 1212), (0.2, 30), (1.0, 4), (1.2, 1000)]
    )
    def test_relative_error(self, b, n):
        p = LognormalParams(0.0, b)
        with mpmath.workdps(50):
            nonparametric, parametric = map(float, self.exact(b, n))
        assert lognormal_mse_nonparametric(p, n) == pytest.approx(nonparametric, rel=1e-13)
        assert lognormal_mse_parametric(p, n) == pytest.approx(parametric, rel=1e-13)

    @pytest.mark.parametrize("b,n0", [(13, 431), (15, 572), (20, 1011), (100, 25110)])
    def test_large_spread_crossovers(self, b, n0):
        # exp of these MSEs overflows a double; the scan compares their logs
        assert lognormal_crossover(b).n_crossover == n0
        with mpmath.workdps(60):
            for n, parametric_wins in ((n0, False), (n0 + 1, True)):
                nonparametric, parametric = self.exact(b, n)
                assert (parametric < nonparametric) == parametric_wins, n


def _skew_log_density(x, theta):
    # log of shape Phi(y)^(shape - 1) phi(y) / scale, y = (x - location)/scale
    loc, scale, shape = theta
    y = (x - loc) / scale
    return math.log(shape) + (shape - 1.0) * log_ndtr(y) + math.log(phi(y) / scale)


def _score(x):
    # the family's score at the standard normal, written out with scipy's log Phi
    return np.array([x, x * x - 1.0, 1.0 + log_ndtr(x)])


#: tr(J^-1 L) at sigma = 1, and its ratio to 7/(16 sqrt(pi)): mpmath quadrature
#: of J and L over the whole line at 30 digits, with log Phi from mpmath's ncdf
SKEW_CONSTANT = 0.342100790033947177091849104991
SKEW_RATIO = 1.38596082901368926413756371269


class TestSkewFamily:
    def test_shape_score_is_centered(self):
        # E log Phi(Z) = -1 for standard normal Z, so the shape score at the
        # normal point integrates to zero
        val, _ = scipy_quad(
            lambda x: float(phi(x)) * float(_normal_point_score(np.array([x]))[2, 0]),
            -12.0,
            12.0,
            epsabs=1e-12,
            limit=300,
        )
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_location_score_reduces_at_normal_point(self):
        xs = np.array([-2.0, 0.3, 1.7])
        u = _normal_point_score(xs)
        assert u[0].tolist() == xs.tolist()
        assert u[1].tolist() == (xs * xs - 1.0).tolist()

    def test_shape_score_against_mpmath(self):
        # 1 + log Phi(y) over the quadrature's range: rounding y/sqrt(2)
        # costs up to about 1.6e-14 at y = -12
        xs = np.linspace(-12.0, 12.0, 97)
        u = _normal_point_score(xs)[2]
        with mpmath.workdps(30):
            errors = [abs(float(1 + mpmath.log(mpmath.ncdf(x)) - v)) for x, v in zip(xs.tolist(), u.tolist())]
        assert max(errors) < 2e-14

    def test_score_matches_finite_differences(self):
        # central differences of the log density in each parameter at the
        # normal point (0, 1, 1)
        rng = substream(1812, 0)
        step = 1e-6
        for x in rng.uniform(-3.0, 3.0, 10).tolist():
            analytic = _normal_point_score(np.array([x]))[:, 0]
            for k in range(3):
                up, dn = [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]
                up[k] += step
                dn[k] -= step
                numeric = (_skew_log_density(x, up) - _skew_log_density(x, dn)) / (2.0 * step)
                assert analytic[k] == pytest.approx(numeric, abs=1e-6)

    def test_information_matrix_structure(self):
        j = np.zeros((3, 3))
        for i in range(3):
            for k in range(i, 3):
                j[i, k], _ = scipy_quad(
                    lambda x: float(phi(x)) * _score(x)[i] * _score(x)[k],
                    -12.0,
                    12.0,
                    epsabs=1e-12,
                    limit=300,
                )
                j[k, i] = j[i, k]
        assert np.allclose(j[:2, :2], np.diag([1.0, 2.0]), atol=1e-8)
        eigenvalues = np.linalg.eigvalsh(j)
        assert eigenvalues.min() > 0.0
        np.testing.assert_allclose(_skew_normal_information()[0], j, rtol=0.0, atol=1e-10)

    def test_information_entries(self):
        # J_33 = E (1 + log U)^2 = 1 for U = Phi(Z) uniform; L_11 = int phi^2 y^2
        j_mat, l_mat = _skew_normal_information()
        for got, exact in ((j_mat[0, 0], 1.0), (j_mat[0, 1], 0.0), (j_mat[1, 1], 2.0), (j_mat[2, 2], 1.0)):
            assert abs(got - exact) <= 1e-13
        assert abs(l_mat[0, 0] - 1.0 / (4.0 * math.sqrt(math.pi))) <= 1e-13

    def test_asymptotic_mise_constant(self):
        val = skew_normal_asymptotic_mise(1.0)
        assert val == pytest.approx(0.342, abs=2e-3)
        assert val / PLUGIN_AMISE_CONSTANT == pytest.approx(1.386, abs=5e-3)
        assert val == pytest.approx(SKEW_CONSTANT, rel=1e-13)
        assert val / PLUGIN_AMISE_CONSTANT == pytest.approx(SKEW_RATIO, rel=1e-13)

    def test_scale_behaviour(self):
        assert skew_normal_asymptotic_mise(2.0) == pytest.approx(
            skew_normal_asymptotic_mise(1.0) / 2.0, rel=1e-8
        )

    @pytest.mark.parametrize("sigma", [0.01, 0.02, 1e5])
    def test_scale_identity_far_from_one(self, sigma):
        # computed at sigma itself, the Fisher information's 1/sigma^2
        # entries broke the quadrature's target (small sigma) or a
        # conditioning check (large sigma), since removed
        assert skew_normal_asymptotic_mise(sigma) == skew_normal_asymptotic_mise(1.0) / sigma

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="overflows"):
            skew_normal_asymptotic_mise(5e-324)
        with pytest.raises(ValueError):
            skew_normal_asymptotic_mise(0.0)
        with pytest.raises(ValueError, match="finite"):
            skew_normal_asymptotic_mise(math.inf)
