"""Bandwidth constants, ancillary densities, real MISE exact and MC."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from ancillary import ancillary_densities
from estimators import mise_exact_generic
from substreams import substream
from normrisk import bandwidth, numerics
from normrisk.bandwidth import (
    BandwidthRule,
    McConfig,
    optimal_bandwidth_constant,
    expected_density_at,
    real_mise_exact,
    real_mise_mc,
    _real_mise_nested,
    rule_of_thumb,
)
from normrisk.cli import TABLE_SAMPLE_SIZES
from normrisk.kernels import EPANECHNIKOV_KERNEL, NORMAL_KERNEL, kernel_eval
from normrisk.numerics import integrate, scaled_chi_inverse_mean, std_normal_pdf
from normrisk.parametric import STD_NORMAL, exact_mise_plugin, exact_mse_plugin

# real-MISE ratios frozen from an independent high-precision evaluation of
# the same decomposition (25-digit arithmetic, tanh-sinh quadrature)
REAL_RATIO_EXACT = {
    ("normal", 10): 1.01008,
    ("epan", 10): 0.99968,
    ("normal", 50): 1.82437,
}

# Optimal bandwidth constants (b_n: normal kernel, c_n: parabolic kernel) at
# 40 digits: the root in c of d/dc MISE(n, c n^(-1/5)), the derivative taken
# numerically by mpmath from the exact MISE, which for the parabolic kernel
# integrates its pair and overlap terms by mpmath quadrature.  Differentiating
# P'(h) and O'(h) under the integral sign instead agrees to 25 digits.
# Generated with mpmath 1.3.0 by:
#
#   import mpmath as mp
#   mp.mp.dps = 40
#   g = lambda y: mp.exp(-y * y / 4) / (2 * mp.sqrt(mp.pi))  # N(0, 2) density
#
#   def normal_mise(n, h):
#       return (1 / (n * h) + (1 - mp.mpf(1) / n) / mp.sqrt(1 + h * h) - 2 / mp.sqrt(1 + h * h / 2) + 1) * g(0)
#
#   def epan_mise(n, h):
#       pair = 2 * mp.quad(lambda u: mp.mpf("1.2") * (1 - 5 * u**2 + 5 * u**3 - u**5) * g(h * u), [0, 1])
#       overlap = 2 * mp.quad(lambda u: mp.mpf("1.5") * (1 - 4 * u * u) * g(h * u), [0, 0.5])
#       return mp.mpf("1.2") / (n * h) + (1 - mp.mpf(1) / n) * pair - 2 * overlap + g(0)
#
#   for n in (2, 3, 10, 100, 10**3, 10**4, 10**5, 10**6):
#       s = mp.mpf(n) ** (-mp.mpf(1) / 5)
#       b, c = (mp.findroot(lambda t: mp.diff(lambda v: mise(n, v * s), t), start)
#               for mise, start in ((normal_mise, 1.1), (epan_mise, 4.8)))
#       print(n, mp.nstr(b, 25), mp.nstr(c, 25))
OPTIMAL_CONSTANTS_MPMATH = {
    2: ("1.326977557661581775037257", "5.391586709670041248302117"),
    3: ("1.287112310618077511341249", "5.282148362895253113347314"),
    10: ("1.202078777766330122604175", "5.062829178960163086812835"),
    100: ("1.118976289605488653169107", "4.854024387612267104508638"),
    10**3: ("1.084210330857756387245418", "4.761695654945095414014264"),
    10**4: ("1.06955991656741787132153", "4.720443307541019061110404"),
    10**5: ("1.063452375242272747054108", "4.702577491965544785357202"),
    10**6: ("1.060938643694749150937797", "4.695054277690863980860575"),
}

# Real MISE of the normal-kernel rule h = a * sigma_hat (a: the rule-of-thumb
# multiplier rounded to five digits), at 30 digits.  Each expectation over
# the Beta law of a squared standardized statistic, and the one over the
# scaled-chi law of sigma_hat, is a direct mpmath quadrature; no Kummer
# function is evaluated.  Generated with mpmath 1.3.0 by:
#
#   import mpmath as mp
#   mp.mp.dps = 30
#
#   def beta_mgf(b, x):  # E exp(-x B), B ~ Beta(1/2, b - 1/2), by quadrature in s = sqrt(B)
#       if b == 1:  # mp.beta(0.5, b - 0.5) below divides by zero; M(1/2, 1, -x) is this closed form
#           return mp.exp(-x / 2) * mp.besseli(0, x / 2)
#       w = 1 / mp.sqrt(b + x)
#       cuts = sorted({mp.mpf(0), mp.mpf(1), *(k * w for k in (0.5, 1, 2, 4, 8, 16, 32) if k * w < 1)})
#       return 2 / mp.beta(0.5, b - 0.5) * mp.quad(lambda s: mp.exp(-x * s * s) * (1 - s * s) ** (b - 1.5), cuts)
#
#   def real_mise(n, a):
#       n, a = mp.mpf(n), mp.mpf(a)
#       nu = n - 1
#       b = nu / 2
#       inv_scale = mp.sqrt(b) * mp.gamma(b - 0.5) / mp.gamma(b)
#       rough = inv_scale / (2 * mp.sqrt(mp.pi) * n * a)
#       pair = (1 - 1 / n) * inv_scale * beta_mgf(b, nu / (2 * a * a)) / (2 * a * mp.sqrt(mp.pi))
#       log_c = mp.log(2) + b * mp.log(b) - mp.loggamma(b)
#       sd = 1 / mp.sqrt(2 * nu)
#       cuts = sorted({mp.mpf(0), *(1 + k * sd for k in (-14, -7, -3, 0, 3, 7, 14) if 1 + k * sd > 0)})
#
#       def truth(z):  # E over the residual of the truth at the estimate's kernel, given sigma_hat = z
#           s2 = 1 + 1 / n + a * a * z * z
#           chi = mp.exp(log_c + (nu - 1) * mp.log(z) - b * z * z)
#           return chi * beta_mgf(b, z * z * nu * nu / (2 * n * s2)) / mp.sqrt(2 * mp.pi * s2)
#
#       return rough + pair - 2 * mp.quad(truth, cuts + [mp.inf]) + 1 / (2 * mp.sqrt(mp.pi))
#
#   for n, a in ((3, 1.03322), (10, 0.75846), (1000, 0.27234), (10**4, 0.16951), (10**5, 0.10635),
#                (10**6, 0.06694)):
#       print(n, mp.nstr(real_mise(n, a), 30))
#   for a in (0.3, 2.0, 10.0):
#       print((3, a), mp.nstr(real_mise(3, a), 30))
#
# It takes about a minute per sample size.  The bound on each relative
# error grows with n because the MISE there is a small difference of terms
# near 1/(2 sqrt(pi)): at n = 10^6 it is 2e-5 of them.
REAL_MISE_MPMATH = {
    3: (1.03322, "0.16248252519684174930019802688", 1e-11),
    10: (0.75846, "0.0307456622004733136067010553395", 1e-11),
    1000: (0.27234, "0.00104267686028007456319333246916", 1e-11),
    10**4: (0.16951, "0.000181317218591790896654990677715", 1e-11),
    10**5: (0.10635, "0.0000304149258048189887612285805178", 1e-9),
    10**6: (0.06694, "0.00000498973076511265317467223634291", 1e-8),
}
# n = 3 at multipliers off the rule of thumb, by the same script
REAL_MISE_N3_MPMATH = {
    0.3: "0.472767931437982820881589061537",
    2.0: "0.121976032049911575905066573911",
    10.0: "0.20756475993253960655984953677",
}


# Real MISE of the parabolic-kernel rule h = a * sigma_hat (a: the
# rule-of-thumb multiplier rounded to five digits), at 30 digits.  The pair
# term and the estimate-truth term, in the order E_R int K(u) f(R + a u) du,
# are direct mpmath quadratures over the sine map of the ancillary
# densities.  Generated with mpmath 1.3.0 by:
#
#   import mpmath as mp
#   mp.mp.dps = 30
#
#   def real_mise(n, a):
#       n, a = mp.mpf(n), mp.mpf(a)
#       b = (n - 1) / 2
#       inv_scale = mp.sqrt(b) * mp.gamma(b - 0.5) / mp.gamma(b)
#       rough = mp.mpf(6) / 5 * inv_scale / (n * a)
#       beta = mp.beta(0.5, (n - 2) / 2)  # R^2/e^2 and S^2/(2(n-1)) are Beta(1/2, (n-2)/2)
#       width = 1 / mp.sqrt(n)  # the sine-map weight cos^(n-3) has this width near 0
#
#       def sine_mean(fn, edge, top):  # E fn(T) for T = edge sin(theta), theta in (-top, top)
#           cuts = sorted({mp.mpf(0), top, *(k * width for k in (1, 3, 7, 14) if k * width < top)})
#           return 2 * mp.quad(lambda t: fn(edge * mp.sin(t)) * mp.cos(t) ** (n - 3), cuts) / beta
#
#       def g(u):  # self-convolution of K(u) = 3/2 (1 - 4u^2) on [-1/2, 1/2]
#           u = abs(u)
#           return mp.mpf(6) / 5 * (1 - 5 * u**2 + 5 * u**3 - u**5) if u < 1 else mp.mpf(0)
#
#       def f(w):  # E phi(mean_hat + w sigma_hat)
#           return mp.sqrt(n / (n + 1) / (2 * mp.pi)) * (1 + n / (n + 1) * w * w / (n - 1)) ** (-(n - 1) / 2)
#
#       s_edge = mp.sqrt(2 * (n - 1))
#       pair = (1 - 1 / n) * inv_scale * sine_mean(lambda s: g(s / a) / a, s_edge, mp.asin(min(1, a / s_edge)))
#       # f(r + a u) peaks at u = -r/a, about 1/a wide: a cut there for large a
#       cuts = lambda r: sorted({mp.mpf(-0.5), mp.mpf(0), mp.mpf(0.5), *([-r / a] if abs(r / a) < 0.5 else [])})
#       inner = lambda r: mp.quad(lambda u: mp.mpf(3) / 2 * (1 - 4 * u * u) * f(r + a * u), cuts(r))
#       truth = sine_mean(inner, (n - 1) / mp.sqrt(n), mp.pi / 2)
#       return rough + pair - 2 * truth + 1 / (2 * mp.sqrt(mp.pi))
#
#   for n, a in ((10, 3.1944), (100, 1.9324), (1000, 1.1961)):
#       print(n, mp.nstr(real_mise(n, a), 30))
#   for n, a in ((3, 10), (3, 30), (3, 100), (10, 10), (10, 30), (10, 100)):
#       print((n, a), mp.nstr(real_mise(n, a), 30))
#
# It takes about 10 s per sample size at the rule-of-thumb multiplier and
# 15-60 s at the large ones; at 40 digits the n = 1000 value agrees to 29
# digits and every large-multiplier value to all 30.
EPAN_REAL_MISE_MPMATH = {
    10: (3.1944, "0.03042872677585011274783021241"),
    100: (1.9324, "0.00546966065183985620832831727405"),
    1000: (1.1961, "0.000997967983525208416121575913354"),
}
EPAN_LARGE_MULTIPLIER_MPMATH = {
    (3, 10): "0.131971323237390254915312833383",
    (3, 30): "0.198269545981309960117261569932",
    (3, 100): "0.252345503917098855774030521194",
    (10, 10): "0.108705817074851526530311396493",
    (10, 30): "0.217273123438734743227588821135",
    (10, 100): "0.262420354204422650210612203745",
}


class TestOptimalConstants:
    @pytest.mark.parametrize(
        "kernel,n,expected",
        [
            (NORMAL_KERNEL, 3, 1.2871),
            (NORMAL_KERNEL, 10, 1.2021),
            (NORMAL_KERNEL, 1000, 1.0842),
            (EPANECHNIKOV_KERNEL, 3, 5.2822),
            (EPANECHNIKOV_KERNEL, 10, 5.0628),
            (EPANECHNIKOV_KERNEL, 1000, 4.7617),
        ],
    )
    def test_published_values(self, kernel, n, expected):
        assert optimal_bandwidth_constant(kernel, n) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("n", sorted(OPTIMAL_CONSTANTS_MPMATH))
    def test_against_mpmath(self, n):
        # a root of the MISE's slope, not the argmin of the flat MISE itself,
        # which is good to only about sqrt(eps): 1.9e-4 off at n = 10^6
        b_n, c_n = OPTIMAL_CONSTANTS_MPMATH[n]
        assert optimal_bandwidth_constant(NORMAL_KERNEL, n) == pytest.approx(float(b_n), rel=1e-12)
        assert optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, n) == pytest.approx(float(c_n), rel=1e-12)

    @pytest.mark.parametrize("kernel", [NORMAL_KERNEL, EPANECHNIKOV_KERNEL], ids=["normal", "epan"])
    @pytest.mark.parametrize("n", sorted({*TABLE_SAMPLE_SIZES, 10, 50, 661, 673, 10**6}))
    def test_constant_brackets_a_sign_change_of_the_slope(self, kernel, n):
        # the computed slope changes sign more than once within 200 ulps of
        # the root at 455 of the n from 2 to 1000 (normal kernel) and at
        # n = 661, 673 and 10^6 (parabolic): the constant is the change the
        # bisection finds, next to a double of the other sign.  The table's n
        # and the Monte Carlo n (10 and 50) are what MC_GOLDEN pins
        c = optimal_bandwidth_constant(kernel, n)
        slope = bandwidth._mise_slope(kernel.name, n)
        scale = n ** (-0.2)
        below, above = math.nextafter(c, -math.inf), math.nextafter(c, math.inf)
        assert (
            slope(below * scale) < 0.0 <= slope(c * scale)
            or slope(c * scale) < 0.0 <= slope(above * scale)
        )

    def test_limits(self):
        b_limit = optimal_bandwidth_constant(NORMAL_KERNEL, 10**6)
        c_limit = optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, 10**6)
        assert abs(b_limit - 1.0592) / 1.0592 < 0.005
        assert abs(c_limit - 4.6898) / 4.6898 < 0.005

    def test_short_range_strictly_decreasing(self):
        for kernel in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL):
            vals = [optimal_bandwidth_constant(kernel, n) for n in range(3, 31)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rule_of_thumb_multiplier(self):
        rule = rule_of_thumb(NORMAL_KERNEL, 10)
        assert rule.kernel is NORMAL_KERNEL
        assert rule.multiplier == pytest.approx(
            optimal_bandwidth_constant(NORMAL_KERNEL, 10) * 10 ** (-0.2), rel=1e-12
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            optimal_bandwidth_constant(NORMAL_KERNEL, 1)
        with pytest.raises(ValueError):
            BandwidthRule(NORMAL_KERNEL, 0.0)


class TestAncillaryDensities:
    @pytest.mark.parametrize("n", [4, 10, 30])
    def test_normalization_by_independent_quadrature(self, n):
        dens = ancillary_densities(n)
        total_r, _ = scipy_quad(
            dens.residual_pdf, -dens.residual_edge, dens.residual_edge, epsabs=1e-12, limit=300
        )
        total_s, _ = scipy_quad(
            dens.pair_diff_pdf, -dens.pair_diff_edge, dens.pair_diff_edge, epsabs=1e-12, limit=300
        )
        assert total_r == pytest.approx(1.0, abs=1e-8)
        assert total_s == pytest.approx(1.0, abs=1e-8)

    def test_even_and_supported(self):
        dens = ancillary_densities(9)
        for t in (0.1, 0.9, 2.0):
            assert dens.residual_pdf(t) == dens.residual_pdf(-t)
            assert dens.pair_diff_pdf(t) == dens.pair_diff_pdf(-t)
        assert dens.residual_pdf(dens.residual_edge + 1e-9) == 0.0
        assert dens.pair_diff_pdf(dens.pair_diff_edge + 0.5) == 0.0

    def test_flat_case(self):
        # n = 4: zero exponent makes the residual density uniform at 1/3
        dens = ancillary_densities(4)
        assert dens.residual_pdf(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert dens.residual_pdf(1.2) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_gaussian_limit(self):
        dens = ancillary_densities(500)
        xs = np.linspace(-2.0, 2.0, 41)
        gap = np.abs(dens.residual_pdf(xs) - std_normal_pdf(xs))
        assert gap.max() < 0.01

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            ancillary_densities(2)


class TestExpectedDensity:
    @pytest.mark.parametrize("n", [3, 10, 100])
    def test_integrates_to_mean_inverse_scale(self, n):
        # swapping expectation and integral: the total mass must equal
        # E(1/sigma_hat), which has a closed gamma-ratio form
        total, _ = scipy_quad(lambda w: expected_density_at(n, w), -np.inf, np.inf, epsabs=1e-12)
        assert total == pytest.approx(scaled_chi_inverse_mean(n), abs=1e-9)

    def test_normal_limit(self):
        xs = np.linspace(-3.0, 3.0, 25)
        gap = np.abs(expected_density_at(5000, xs) - std_normal_pdf(xs))
        assert gap.max() < 1e-3

    def test_matches_direct_simulation(self):
        # average of phi(mu_hat + w sigma_hat) over simulated samples
        n, w, B = 6, 0.8, 10**6
        rng = substream(40490, 0)
        draws = rng.standard_normal((B, n))
        mu_hat = draws.mean(axis=1)
        sd_hat = draws.std(axis=1, ddof=1)
        vals = std_normal_pdf(mu_hat + w * sd_hat)
        se = vals.std(ddof=1) / math.sqrt(B)
        assert abs(vals.mean() - expected_density_at(n, w)) < 3.0 * se


class TestRealMiseExact:
    @pytest.mark.parametrize("key", sorted(REAL_RATIO_EXACT))
    def test_frozen_ratios(self, key):
        kernel_name, n = key
        kernel = NORMAL_KERNEL if kernel_name == "normal" else EPANECHNIKOV_KERNEL
        rule = rule_of_thumb(kernel, n)
        ratio = real_mise_exact(rule, STD_NORMAL, n).value / exact_mise_plugin(STD_NORMAL, n).value
        assert ratio == pytest.approx(REAL_RATIO_EXACT[key], abs=2e-4)

    def test_estimated_bandwidth_never_beats_oracle(self):
        from normrisk.kernels import mise_closed_epan_kernel, mise_closed_normal_kernel

        for kernel, closed in (
            (NORMAL_KERNEL, mise_closed_normal_kernel),
            (EPANECHNIKOV_KERNEL, mise_closed_epan_kernel),
        ):
            for n in (5, 12):
                rule = rule_of_thumb(kernel, n)
                fixed = closed(n, rule.multiplier)
                random_h = real_mise_exact(rule, STD_NORMAL, n).value
                assert random_h >= fixed

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            real_mise_exact(BandwidthRule(NORMAL_KERNEL, 0.7), STD_NORMAL, 2)

    @pytest.mark.parametrize("n", [4, 5, 10, 14, 20, 50, 100])
    def test_kummer_route_matches_nested(self, n):
        # two independent exact routes for the normal kernel: Kummer functions
        # with one integral over sigma_hat, and the nested ancillary quadrature
        # the large multipliers need more panels in u: on a fixed eight,
        # a = 100 was 1.2e-4 off at n = 3
        for a in (0.3, rule_of_thumb(NORMAL_KERNEL, n).multiplier, 2.0, 10.0, 30.0, 100.0):
            rule = BandwidthRule(NORMAL_KERNEL, a)
            closed = real_mise_exact(rule, STD_NORMAL, n).value
            nested = _real_mise_nested(rule, STD_NORMAL, n).value
            assert abs(closed / nested - 1) <= 1e-11, a

    @pytest.mark.parametrize("n", sorted(REAL_MISE_MPMATH))
    def test_against_mpmath(self, n):
        a, reference, bound = REAL_MISE_MPMATH[n]
        value = real_mise_exact(BandwidthRule(NORMAL_KERNEL, a), STD_NORMAL, n).value
        assert abs(value / float(reference) - 1) <= bound

    @pytest.mark.parametrize("a", sorted(REAL_MISE_N3_MPMATH))
    def test_n3_against_mpmath(self, a):
        # n = 3 takes the nested route: 2.0e-12 off at a = 2, the largest
        value = real_mise_exact(BandwidthRule(NORMAL_KERNEL, a), STD_NORMAL, 3).value
        assert abs(value / float(REAL_MISE_N3_MPMATH[a]) - 1) <= 1e-11

    @pytest.mark.parametrize("n", sorted(EPAN_REAL_MISE_MPMATH))
    def test_parabolic_kernel_against_mpmath(self, n):
        a, reference = EPAN_REAL_MISE_MPMATH[n]
        value = real_mise_exact(BandwidthRule(EPANECHNIKOV_KERNEL, a), STD_NORMAL, n).value
        assert abs(value / float(reference) - 1) <= 1e-11

    @pytest.mark.parametrize("n,a", sorted(EPAN_LARGE_MULTIPLIER_MPMATH))
    def test_parabolic_kernel_large_multiplier_against_mpmath(self, n, a):
        # f(R + a u) narrows like 1/a: on one panel in u, (3, 10) was 6.5e-10
        # off and (10, 100) 3.5%
        value = _real_mise_nested(BandwidthRule(EPANECHNIKOV_KERNEL, float(a)), STD_NORMAL, n).value
        assert abs(value / float(EPAN_LARGE_MULTIPLIER_MPMATH[n, a]) - 1) <= 1e-11

    def test_integrands_take_arrays(self, monkeypatch):
        # every integrand of both routes is evaluated on whole node arrays,
        # never through the per-point fallback of `integrate`
        ndims = []

        def recording_integrate(f, *args, **kwargs):
            def g(x):
                ndims.append(np.ndim(x))
                return f(x)

            return integrate(g, *args, **kwargs)

        monkeypatch.setattr(bandwidth, "integrate", recording_integrate)
        for kernel in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL):
            for n in (3, 20, 1000):
                real_mise_exact(rule_of_thumb(kernel, n), STD_NORMAL, n)
        assert ndims and 0 not in ndims

    def test_other_kernels_take_the_nested_route(self):
        rule = rule_of_thumb(EPANECHNIKOV_KERNEL, 7)
        assert real_mise_exact(rule, STD_NORMAL, 7) == _real_mise_nested(rule, STD_NORMAL, 7)
        # and so does the normal kernel at n = 3, where b = 1 is below the
        # Kummer rule's domain
        rule = rule_of_thumb(NORMAL_KERNEL, 3)
        assert real_mise_exact(rule, STD_NORMAL, 3) == _real_mise_nested(rule, STD_NORMAL, 3)

    def test_report_method(self):
        report = real_mise_exact(rule_of_thumb(NORMAL_KERNEL, 6), STD_NORMAL, 6)
        assert report.method == "quadrature"
        assert report.std_error is None

    def test_pair_term_factorization_against_simulation(self):
        # independence of the scale estimate and the standardized pair
        # difference: the factorized pair term must match a direct
        # million-replicate average of the joint expression
        n = 10
        rule = rule_of_thumb(NORMAL_KERNEL, n)
        a = rule.multiplier
        dens = ancillary_densities(n)

        def scaled_self_conv(s):
            return std_normal_pdf(s / (a * math.sqrt(2.0))) / (a * math.sqrt(2.0))

        pair_integral, _ = scipy_quad(
            lambda s: scaled_self_conv(s) * dens.pair_diff_pdf(s),
            -dens.pair_diff_edge,
            dens.pair_diff_edge,
            epsabs=1e-12,
            limit=300,
        )
        product = scaled_chi_inverse_mean(n) * pair_integral

        rng = substream(777, 0)
        B, chunk = 10**6, 200_000
        total = 0.0
        total_sq = 0.0
        for _ in range(B // chunk):
            draws = rng.standard_normal((chunk, n))
            sd = draws.std(axis=1, ddof=1)
            s_stat = (draws[:, 0] - draws[:, 1]) / sd
            g_val = std_normal_pdf(s_stat / (a * math.sqrt(2.0))) / (a * math.sqrt(2.0))
            vals = g_val / sd
            total += vals.sum()
            total_sq += (vals**2).sum()
        mc_mean = total / B
        mc_se = math.sqrt((total_sq / B - mc_mean**2) / B)
        assert abs(product - mc_mean) < 3.0 * mc_se


ONE_INTEGRAL_CASES = {
    "exact_mse_plugin": lambda: exact_mse_plugin(np.linspace(-3.0, 3.0, 13), STD_NORMAL, 14),
    **{
        f"real_mise_exact-{kernel.name}-{n}": (
            lambda kernel=kernel, n=n: real_mise_exact(rule_of_thumb(kernel, n), STD_NORMAL, n)
        )
        for kernel in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
        for n in (3, 20, 1000)
    },
    "real_mise_nested-normal": lambda: _real_mise_nested(rule_of_thumb(NORMAL_KERNEL, 20), STD_NORMAL, 20),
    "mise_exact_generic-normal": lambda: mise_exact_generic(NORMAL_KERNEL, STD_NORMAL, 10, 0.5),
    "mise_exact_generic-epan": lambda: mise_exact_generic(EPANECHNIKOV_KERNEL, STD_NORMAL, 10, 2.0),
}


@pytest.mark.parametrize("case", sorted(ONE_INTEGRAL_CASES))
def test_one_integral_per_value(case, monkeypatch):
    # every exact risk value is one array-valued adaptive integral, whatever
    # number of terms it combines
    calls = []

    def counting_integrate(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    for module in (bandwidth, numerics):
        monkeypatch.setattr(module, "integrate", counting_integrate)
    ONE_INTEGRAL_CASES[case]()
    assert len(calls) == 1, calls


class TestRealMiseMc:
    def test_deterministic(self):
        rule = rule_of_thumb(NORMAL_KERNEL, 5)
        mc = McConfig(replicates=500, eval_points=4, seed=99)
        first = real_mise_mc(rule, STD_NORMAL, 5, mc)
        second = real_mise_mc(rule, STD_NORMAL, 5, mc)
        assert first == second

    def test_matches_exact_within_error(self):
        rule = rule_of_thumb(EPANECHNIKOV_KERNEL, 8)
        mc = McConfig(replicates=4000, eval_points=8, seed=31337)
        report = real_mise_mc(rule, STD_NORMAL, 8, mc)
        exact = real_mise_exact(rule, STD_NORMAL, 8).value
        assert report.method == "monte_carlo"
        assert abs(report.value - exact) < 3.5 * report.std_error

    def test_error_shrinks_with_replicates(self):
        # the per-replicate scores are heavy-tailed, so the ratio is noisy;
        # the median over seeds at a few thousand replicates is stable
        rule = rule_of_thumb(NORMAL_KERNEL, 6)
        ratios = []
        for seed in range(10):
            small = real_mise_mc(rule, STD_NORMAL, 6, McConfig(replicates=2000, eval_points=5, seed=seed))
            large = real_mise_mc(rule, STD_NORMAL, 6, McConfig(replicates=4000, eval_points=5, seed=seed))
            ratios.append(large.std_error / small.std_error)
        assert np.median(ratios) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    @staticmethod
    def _check_blocks_match_one_replicate_at_a_time(kernel, n, mc):
        rule = rule_of_thumb(kernel, n)
        scores = []
        for i in range(mc.replicates):
            draws = substream(mc.seed, i).standard_normal(n + mc.eval_points)
            sample, fresh = draws[:n], draws[n:]
            h = rule.multiplier * sample.std(ddof=1)
            estimate = kernel_eval(kernel, (sample[None, :] - fresh[:, None]) / h).sum(axis=1) / (n * h)
            root_truth = np.sqrt(std_normal_pdf(fresh))
            scores.append(np.mean((estimate / root_truth - root_truth) ** 2))
        scores = np.array(scores)
        report = real_mise_mc(rule, STD_NORMAL, n, mc)
        assert report.value == scores.mean()
        assert report.std_error == scores.std(ddof=1) / math.sqrt(mc.replicates)

    @pytest.mark.parametrize("kernel", [NORMAL_KERNEL, EPANECHNIKOV_KERNEL])
    def test_blocks_match_one_replicate_at_a_time(self, kernel):
        # n = 50, m = 3 gives blocks of 436 replicates, so the last of 1000
        # (436 + 436 + 128) is partial; a seed of 2**64 and up fills the second
        # word of the Philox key
        mc = McConfig(replicates=1000, eval_points=3, seed=2**64 + 9)
        self._check_blocks_match_one_replicate_at_a_time(kernel, 50, mc)

    @pytest.mark.parametrize("kernel", [NORMAL_KERNEL, EPANECHNIKOV_KERNEL])
    def test_one_replicate_a_block_above_the_budget(self, kernel):
        # m n = 70000 is above the block budget of 2**16 values, so each block
        # holds one replicate
        mc = McConfig(replicates=3, eval_points=70, seed=11)
        self._check_blocks_match_one_replicate_at_a_time(kernel, 1000, mc)

    @pytest.mark.parametrize("kernel", [NORMAL_KERNEL, EPANECHNIKOV_KERNEL])
    @pytest.mark.parametrize(
        "n,m,seed",
        [(2, 1, 0), (2, 1, 2**64 + 9), (2, 1, 2**128 - 1), (50, 3, 0), (50, 3, 2**128 - 1)],
    )
    def test_blocks_match_across_seeds_and_sizes(self, kernel, n, m, seed):
        # the smallest sample and a single evaluation point, and the seeds at
        # both ends of the Philox key range
        mc = McConfig(replicates=300, eval_points=m, seed=seed)
        self._check_blocks_match_one_replicate_at_a_time(kernel, n, mc)

    def test_scratch_memory_is_flat_in_replicates(self):
        # one unblocked (replicates, eval_points, n) array would be 24 MB here
        rule = rule_of_thumb(NORMAL_KERNEL, 1000)
        tracemalloc.start()
        try:
            real_mise_mc(rule, STD_NORMAL, 1000, McConfig(replicates=300, eval_points=10, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("field", ["replicates", "eval_points", "seed"])
    @pytest.mark.parametrize("value", [10.5, 10.0, True])
    def test_config_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            McConfig(**{"replicates": 10, "eval_points": 10, "seed": 10, field: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(replicates=0, eval_points=1, seed=0)
        with pytest.raises(ValueError):
            McConfig(replicates=1, eval_points=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            McConfig(replicates=1, eval_points=1, seed=seed)
