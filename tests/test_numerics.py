"""Quadrature, special functions, sampling."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.stats import chi

from substreams import substream

from normrisk.numerics import (
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    DEFAULT_TOL,
    QuadratureError,
    _check_sample_size,
    _scaled_chi_support,
    gamma_half_ratio,
    integrate,
    _gamma_half_excess,
    kummer_m_half,
    scaled_chi_column,
    scaled_chi_inverse_mean,
    std_normal_pdf,
)

INV_TWO_SQRT_PI = 1.0 / (2.0 * math.sqrt(math.pi))


class TestIntegrate:
    def test_normal_pdf_normalizes(self):
        assert integrate(std_normal_pdf, -40.0, 40.0) == pytest.approx(1.0, abs=1e-9)

    def test_epanechnikov_second_moment(self):
        def f(u):
            return u * u * 1.5 * (1.0 - 4.0 * u * u)

        assert integrate(f, -0.5, 0.5) == pytest.approx(0.05, abs=1e-12)

    def test_squared_normal_pdf(self):
        val = integrate(lambda x: std_normal_pdf(x) ** 2, -40.0, 40.0)
        assert val == pytest.approx(INV_TWO_SQRT_PI, abs=1e-10)

    def test_scalar_only_integrand_rejected(self):
        # math.exp rejects arrays; there is no pointwise fallback
        with pytest.raises(TypeError):
            integrate(lambda x: math.exp(-x), 0.0, 5.0)
        with pytest.raises(TypeError, match="node axis last"):
            integrate(lambda x: 1.0, 0.0, 5.0)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-13], ids=["default", "tight"])
    def test_vector_components_meet_their_own_targets(self, tol):
        # components 1e6 apart in scale, each against its closed form; the
        # kink converges slowly, so its error follows its target closely
        def f(x):
            return np.array([np.exp(-x), 1e-6 * np.sqrt(np.abs(x - 1.3)), 1e-6 * np.sin(7.0 * x)])

        closed = np.array([
            1.0 - math.exp(-5.0),
            1e-6 * (1.3**1.5 + 3.7**1.5) * 2.0 / 3.0,
            1e-6 * (1.0 - math.cos(35.0)) / 7.0,
        ])
        val = integrate(f, 0.0, 5.0, tol)
        assert val.shape == (3,)
        target = tol * np.maximum(1.0, np.abs(closed))
        assert np.all(np.abs(val - closed) <= target)

    def test_vector_matches_componentwise(self):
        ts = np.array([-1.0, 0.5, 1.0, 2.0, 3.0])
        val = integrate(lambda x: np.exp(-0.5 * np.outer(ts, x) ** 2), -40.0, 40.0)
        each = [integrate(lambda x: np.exp(-0.5 * (t * x) ** 2), -40.0, 40.0) for t in ts]
        assert val.shape == ts.shape
        assert np.abs(val - each).max() < 2e-10
        assert np.abs(val - math.sqrt(2.0 * math.pi) / np.abs(ts)).max() < 1e-10

    def test_leading_shape_preserved(self):
        val = integrate(lambda x: np.ones((2, 3, 1)) * x, 0.0, 2.0)
        assert val.shape == (2, 3)
        assert np.allclose(val, 2.0, atol=1e-14)

    def test_narrow_spike_with_bracketing_points(self):
        width = 1e-4

        def spike(x):
            return std_normal_pdf((x - 0.3) / width) / width

        val = integrate(spike, 0.0, 1.0, points=(0.295, 0.305))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_invalid_interval_rejected(self):
        # both limits must be finite
        for lo, hi in [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (-math.inf, 0.0), (0.0, math.inf)]:
            with pytest.raises(ValueError, match="invalid interval"):
                integrate(std_normal_pdf, lo, hi)

    def test_nonconvergence_raises(self):
        # a target below the roundoff floor is never met: the one cap of
        # 4096 subdivisions ends the run
        with pytest.raises(QuadratureError, match="after 4096 subdivisions"):
            integrate(lambda x: np.sin(50.0 * x) ** 2, 0.0, 10.0, tol=1e-300)

    def test_vector_nonconvergence_raises(self):
        # the smooth component converges at once; the oscillating one cannot
        with pytest.raises(QuadratureError, match="after 4096 subdivisions"):
            integrate(lambda x: np.array([np.exp(-x), np.sin(50.0 * x) ** 2]), 0.0, 10.0, tol=1e-300)

    def test_nonconvergence_names_the_worst_panel(self):
        with pytest.raises(QuadratureError, match=r"worst panel \[\S+, \S+\] with bound \S+$") as info:
            integrate(lambda x: np.sin(50.0 * x) ** 2, 0.0, 10.0, tol=1e-300)
        found = re.search(r"error bound (\S+), worst panel \[(\S+), (\S+)\] with bound (\S+)$", str(info.value))
        total, a, b, worst = map(float, found.groups())
        # one of about 4096 panels on (0, 10), holding part of the total bound
        assert 0.0 <= a < b <= 10.0 and b - a < 0.01
        assert 0.0 < worst < total

    def test_non_finite_message_names_the_panel(self):
        # the NaN appears from the second call on, in (0.65, 0.7): that call
        # holds non-adjacent halves, and the message names the one evaluated
        # panel with a NaN, not the span of the call
        seen = []

        def f(x):
            seen.append(x)
            y = np.sin(50.0 * x) ** 2
            return np.where((x > 0.65) & (x < 0.7), np.nan, y) if len(seen) > 1 else y

        with pytest.raises(QuadratureError, match=r"non-finite integrand values on the panel \[0\.6, 0\.7\]$"):
            integrate(f, 0.0, 1.0, points=(0.2, 0.4, 0.6, 0.8))
        # the call evaluated panels on both sides of it
        assert seen[-1].min() < 0.6 and seen[-1].max() > 0.7

    def test_non_finite_values_raise(self):
        # a NaN once came back as the integral, with no warning
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda x: np.where(x > 5.0, np.nan, 1.0), 0.0, 10.0)
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda x: np.stack((np.ones_like(x), np.where(x > 5.0, np.nan, 1.0))), 0.0, 10.0)
        # an infinity is caught before numpy's invalid-value warning, which
        # these tests treat as an error
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda x: np.where(x > 5.0, np.inf, 1.0), 0.0, 10.0)

    @given(
        st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    def test_linearity_on_polynomials(self, ca, cb, alpha, beta):
        f = np.polynomial.Polynomial(ca)
        g = np.polynomial.Polynomial(cb)
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 1.0)
        separate = alpha * integrate(f, 0.0, 1.0) + beta * integrate(g, 0.0, 1.0)
        assert combined == pytest.approx(separate, abs=2 * DEFAULT_TOL)

    def test_config_validation(self):
        # an infinite target would stop after the first pass and return
        # 4.496 for the integral of sin(50 x)^2 over (0, 10), which is 4.996
        for tol in [0.0, -1.0, math.inf, math.nan]:
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                integrate(lambda x: np.sin(50.0 * x) ** 2, 0.0, 10.0, tol)


def _kummer_reference(b, x):
    # M(1/2, b, -x) at the working precision: mpmath's hyp1f1, or above
    # b = 10^6, where hyp1f1 is very slow, the beta integral under
    # B = sin(theta)^2 with cuts at k/sqrt(x + b) across its bell
    if b < 1e6:
        return mpmath.hyp1f1(0.5, b, -mpmath.mpf(x))
    b, x = mpmath.mpf(b), mpmath.mpf(x)
    width = 1 / mpmath.sqrt(x + b)
    cuts = [0, width, 2 * width, 4 * width, 8 * width, 16 * width, mpmath.pi / 2]
    bell = mpmath.quad(lambda t: mpmath.exp(-x * mpmath.sin(t) ** 2) * mpmath.cos(t) ** (2 * b - 2), cuts)
    return 2 * mpmath.gamma(b) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(b - 0.5)) * bell


class TestSpecialFunctions:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    @pytest.mark.parametrize(
        "x", [0.5, 1.0, 2.0, 4.5, 9.75, 10.0, 10.5, 499.5, 4999.5, 499999.5, 5e6]
    )
    def test_gamma_half_ratio_against_mpmath(self, x):
        # both sides of the series switch at x = 10, and the large x where a
        # difference of two log-gamma values loses up to 1e-9
        with mpmath.workdps(30):
            ref = mpmath.gamma(mpmath.mpf(x) + 0.5) / mpmath.gamma(mpmath.mpf(x))
            assert abs(gamma_half_ratio(x) / ref - 1) < 1e-15

    def test_gamma_half_ratio_of_numpy_integer(self):
        # x * x in the Stirling series passes 2**63 here
        assert gamma_half_ratio(np.int64(4 * 10**9)) == gamma_half_ratio(4 * 10**9)

    def test_gamma_half_ratio_domain(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                gamma_half_ratio(bad)

    # b = (n-1)/2 for n = 3, 4, 5, 10, 100, 10^4, 10^6, 10^7, 10^8, and one b between
    @pytest.mark.parametrize(
        "b", [1.0, 1.5, 2.0, 4.5, 7.25, 49.5, 4999.5, 499999.5, 4999999.5, 49999999.5]
    )
    def test_kummer_against_mpmath(self, b):
        # x spans arguments from below b to far beyond it, and straddles
        # x + b - 1 = 40, below which the range in theta reaches pi/2
        xs = np.array([0.0, 1e-3, 0.3, 1.0, 3.0, 7.0, 11.0, 15.0, 20.0, 40.0, 80.0, 1e3, 1e5, 1e7])
        xs = np.append(xs, [x for x in (40.9 - b, 41.1 - b) if x >= 0])
        got = kummer_m_half(b, xs)
        with mpmath.workdps(30):
            for x, value in zip(xs, got):
                ref = _kummer_reference(b, x)
                assert abs(value / ref - 1) < 1e-14, x

    def test_kummer_scalar_and_domain(self):
        assert kummer_m_half(3.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert isinstance(kummer_m_half(3.0, 2.0), float)
        # the domain starts at b = 1 (n = 3), the arcsine law
        with pytest.raises(ValueError, match="b >= 1"):
            kummer_m_half(0.75, 1.0)
        assert isinstance(kummer_m_half(1.0, 1.0), float)
        with pytest.raises(ValueError):
            kummer_m_half(2.0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            kummer_m_half(2.0, math.nan)

    @pytest.mark.parametrize("n", [10.5, 10.0, "10", None])
    def test_sample_size_must_be_integer(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            _check_sample_size(n, 3)

    def test_sample_size_minimum(self):
        _check_sample_size(np.int64(3), 3)
        with pytest.raises(ValueError, match="at least 3"):
            _check_sample_size(2, 3)


def _newton_root(step, x):
    # four Newton steps from a double carry its ~1e-16 error below 1e-40
    for _ in range(4):
        x -= step(x)
    return x


def _legendre_32(x):
    # P_32(x) and P_31(x) by the three-term recurrence
    p_prev, p = mpmath.mpf(1), x
    for k in range(1, 32):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


class TestStoredGaussRules:
    """The stored rule against nodes Newton-refined to 40 digits from them.

    The weights are numpy's, about 5e-14 off in the worst case; the nodes
    are within a few ulp.
    """

    def test_legendre_nodes_and_weights(self):
        x, w = _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
        assert x.shape == w.shape == (32,)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1 and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        node_err, weight_err = [], []
        with mpmath.workdps(40):
            for xi, wi in zip(x.tolist(), w.tolist()):
                # P_32' = 32 (x P_32 - P_31) / (x^2 - 1)
                def step(t):
                    p, p_prev = _legendre_32(t)
                    return p * (t * t - 1) / (32 * (t * p - p_prev))

                root = _newton_root(step, mpmath.mpf(xi))
                p, p_prev = _legendre_32(root)
                slope = 32 * (root * p - p_prev) / (root * root - 1)
                weight = 2 / ((1 - root * root) * slope * slope)
                node_err.append(float(abs(xi / root - 1)))
                weight_err.append(float(abs(wi / weight - 1)))
        assert max(node_err) < 1.7e-16
        assert max(weight_err) < 5.9e-14


class TestScaledChi:
    def test_inverse_mean_gamma_ratio(self):
        # n = 5: sqrt(2) * Gamma(1.5) / Gamma(2)
        closed = math.sqrt(2.0) * math.gamma(1.5) / math.gamma(2.0)
        assert scaled_chi_inverse_mean(5) == pytest.approx(closed, rel=1e-14)
        # Z = chi(nu)/sqrt(nu), nu = n - 1, has density sqrt(nu) chi.pdf(z sqrt(nu), nu)
        nu = 4
        by_quad, _ = scipy_quad(
            lambda z: math.sqrt(nu) * chi.pdf(z * math.sqrt(nu), nu) / z, 0.0, np.inf, epsabs=1e-12
        )
        assert by_quad == pytest.approx(closed, abs=1e-9)
        assert closed == pytest.approx(1.2533141, abs=5e-8)

    @pytest.mark.parametrize("n", [3, 4, 25, 1000, 10**4, 10**6, 10**7])
    def test_inverse_mean_against_mpmath(self, n):
        with mpmath.workdps(30):
            nu = mpmath.mpf(n - 1)
            ref = mpmath.sqrt(nu / 2) * mpmath.gamma((nu - 1) / 2) / mpmath.gamma(nu / 2)
            assert abs(scaled_chi_inverse_mean(n) / ref - 1) < 1e-15


class TestScaledChiExpectation:
    """Expectations over the scaled-chi law at one sample size: a column of one n."""

    @pytest.mark.parametrize("n", [3, 4, 10, 1000, 10**6])
    def test_known_moments(self, n):
        (one,), (second,), (inverse,) = scaled_chi_column(
            lambda n, z, d: np.stack((np.ones_like(z), z * z, 1.0 / z)), [n]
        )
        assert one == pytest.approx(1.0, rel=1e-12, abs=0)
        assert second == pytest.approx(1.0, rel=1e-12, abs=0)
        assert inverse == pytest.approx(scaled_chi_inverse_mean(n), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [3, 4, 10, 1000, 10**6])
    def test_support_ends_lie_40_below_the_peak(self, n):
        lo, mode, hi = _scaled_chi_support(n)
        assert 0.0 < lo < mode < hi
        with mpmath.workdps(40):
            nu = mpmath.mpf(n - 1)
            peak = mpmath.sqrt((nu - 1) / nu)

            def log_density(z):
                return (nu - 1) * mpmath.log(z) - nu * z * z / 2

            for end in (lo, hi):
                drop = log_density(peak) - log_density(mpmath.mpf(end))
                assert abs(drop - 40) < 1e-9, end

    @pytest.mark.parametrize("n", [2, 10.5, 10.0])
    def test_rejects_bad_sample_size(self, n):
        with pytest.raises(ValueError, match="sample size"):
            scaled_chi_column(lambda n, z, d: z, [n])


class TestScaledChiColumn:
    NS = [3, 4, 10, 1000, 10**6, 10**8]

    def test_known_moments(self):
        one, first, second, inverse = scaled_chi_column(
            lambda n, z, d: np.stack((np.ones_like(z), z, z * z, 1.0 / z)), self.NS
        )
        for i, n in enumerate(self.NS):
            assert one[i] == pytest.approx(1.0, rel=1e-14, abs=0), n
            # E Z = Gamma(n/2) / (sqrt((n-1)/2) Gamma((n-1)/2))
            mean = gamma_half_ratio(0.5 * (n - 1)) / math.sqrt(0.5 * (n - 1))
            assert first[i] == pytest.approx(mean, rel=1e-14, abs=0), n
            assert second[i] == pytest.approx(1.0, rel=1e-14, abs=0), n
            assert inverse[i] == pytest.approx(scaled_chi_inverse_mean(n), rel=1e-14, abs=0), n

    def test_d_is_exact_where_z_minus_1_is_not(self):
        # E Z - 1 = expm1(e((n-1)/2)) is about -1/(4n), and d is O(1/sqrt(n)):
        # the 15-digit Gauss-Kronrod weights leave 1.1e-12 of it at n = 10^8.
        # z - 1 from a rounded z, off by up to an ulp of 1, is 2.7e-11 off
        # there and 4.5e-11 at n = 10^6
        ns = [10**6, 10**8]
        means = scaled_chi_column(lambda n, z, d: d, ns)
        for n, mean in zip(ns, means):
            exact = math.expm1(_gamma_half_excess(0.5 * (n - 1)))
            assert mean == pytest.approx(exact, rel=2e-12, abs=0), n

    @pytest.mark.parametrize("ns", [[3, 10**6], [10**6, 3], [5, 5, 3]])
    def test_order_and_repeats(self, ns):
        together = scaled_chi_column(lambda n, z, d: np.stack((z * z, 1.0 / z)), ns)
        assert together.shape == (2, len(ns))
        for i, n in enumerate(ns):
            alone = scaled_chi_column(lambda n, z, d: np.stack((z * z, 1.0 / z)), [n])
            np.testing.assert_allclose(together[:, i], alone[:, 0], rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "ns, message",
        [
            ([], "at least one sample size"),
            ((), "at least one sample size"),
            ([3, 10.5], "must be an integer"),
            ([10.0], "must be an integer"),
            ([math.nan], "must be an integer"),
            ([3, 2], "at least 3"),
            ([0], "at least 3"),
            ([-5, 10], "at least 3"),
        ],
    )
    def test_rejects_bad_sample_sizes(self, ns, message):
        with pytest.raises(ValueError, match=message):
            scaled_chi_column(lambda n, z, d: z, ns)


class TestSampling:
    def test_empty(self):
        assert substream(7, 0).standard_normal(0).size == 0

    def test_deterministic(self):
        a = substream(123, 0).standard_normal(1000)
        b = substream(123, 0).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distribution_sanity(self):
        x = substream(2024, 0).standard_normal(10**6)
        assert abs(x.mean()) < 0.004  # 3 sigma bound at a million draws
        assert abs(x.var(ddof=1) - 1.0) < 0.005
        tail = np.mean(np.abs(x) > 1.96)
        assert abs(tail - 0.05) < 3.1 * math.sqrt(0.05 * 0.95 / 1e6)

    def test_substreams_are_distinct_and_stable(self):
        a0 = substream(9, 0).standard_normal(8)
        a1 = substream(9, 1).standard_normal(8)
        assert not np.allclose(a0, a1)
        assert np.array_equal(a0, substream(9, 0).standard_normal(8))
        with pytest.raises(ValueError):
            substream(9, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 2**128 - 1])
    @pytest.mark.parametrize("index", [0, 1, 9999, 2**64 - 1, 2**64 + 2])
    def test_substream_is_the_jumped_stream(self, seed, index):
        # starting at counter [0, 0, index, 0] is jumping index times from zero;
        # nine draws cross the four-word Philox buffer twice
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        assert np.array_equal(substream(seed, index).standard_normal(9), jumped.standard_normal(9))
