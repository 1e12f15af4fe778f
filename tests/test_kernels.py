"""Kernel estimator risk: moments, pointwise MSE, closed and generic MISE."""

import dataclasses
import functools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import minimize_scalar

from estimators import mise_exact_generic
from substreams import substream

from normrisk.bandwidth import rule_of_thumb
from normrisk.kernels import (
    EPANECHNIKOV_KERNEL,
    MISE_SERIES_H,
    NORMAL_KERNEL,
    EPAN_VARIANCE_MAX_H,
    Kernel,
    _epan_moments,
    asymptotic_kernel_risk,
    exact_mse_kernel,
    gk_epanechnikov,
    kernel_eval,
    kernel_self_convolution,
    mise_closed_epan_kernel,
    mise_closed_normal_kernel,
    mise_fixed_bandwidth,
)
from normrisk.numerics import integrate, std_normal_pdf
from normrisk.parametric import NormalParams, STD_NORMAL

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
RF = 1.0 / (2.0 * math.sqrt(math.pi))
BOTH_KERNELS = (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)

# signed zeros, the support edge and its neighbouring doubles, subnormals,
# large values, infinities, NaN, and values whose results round
EDGE_CASES = np.array([
    0.0, -0.0, 0.5, -0.5,
    np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), np.nextafter(-0.5, -1.0), np.nextafter(-0.5, 0.0),
    1e-310, -1e-310, 1e3, -1e3, math.inf, -math.inf, math.nan, 0.1, -0.3, 0.4321, 2.7,
])


def _normal_reference(u):
    return np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi))


def _parabolic_reference(u):
    return np.where(np.abs(u) <= 0.5, 1.5 * (1.0 - 4.0 * u * u), 0.0)


# each function that can write in place, and the formula it had before it
# could: with or without `out`, its values must match that bit for bit
IN_PLACE_CASES = {
    "std_normal_pdf": (std_normal_pdf, _normal_reference),
    "normal": (functools.partial(kernel_eval, NORMAL_KERNEL), _normal_reference),
    "epan": (functools.partial(kernel_eval, EPANECHNIKOV_KERNEL), _parabolic_reference),
}


def phi(x):
    return PHI0 * math.exp(-0.5 * x * x)


def _minimize(f, lo, hi):
    # scipy's bounded Brent search: an independent reference for the minima
    return minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})


class TestKernelType:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Kernel("epan", 1.0, 0.05, 0.5),
            lambda: Kernel("box", 0.5, 1 / 12, 0.5),
            lambda: dataclasses.replace(NORMAL_KERNEL, second_moment=2.0),
        ],
        ids=["wrong-roughness", "unknown-name", "replaced-constant"],
    )
    def test_any_other_kernel_raises_when_made(self, make):
        # every formula is written for the two kernels alone: with the first,
        # the real MISE at n = 10 and a = 0.8 was 0.10970 for the parabolic
        # kernel's 0.13705, and the fixed-bandwidth MISE ignored the roughness
        with pytest.raises(ValueError, match="is not the normal or the parabolic kernel"):
            make()


class TestKernelEval:
    def test_parabolic_peak_and_edges(self):
        assert kernel_eval(EPANECHNIKOV_KERNEL, 0.0) == 1.5
        assert kernel_eval(EPANECHNIKOV_KERNEL, 0.5) == 0.0
        assert kernel_eval(EPANECHNIKOV_KERNEL, -0.5) == 0.0
        assert kernel_eval(EPANECHNIKOV_KERNEL, 0.7) == 0.0

    def test_normal_is_phi(self):
        assert kernel_eval(NORMAL_KERNEL, 1.3) == pytest.approx(phi(1.3), rel=1e-14)

    @pytest.mark.parametrize("evaluate,reference", IN_PLACE_CASES.values(), ids=IN_PLACE_CASES)
    @pytest.mark.parametrize("shape", [(), (EDGE_CASES.size,), (3, 1, EDGE_CASES.size)])
    def test_matches_reference_formula_bit_for_bit(self, evaluate, reference, shape):
        inputs = [np.array(v) for v in EDGE_CASES] if shape == () else [np.resize(EDGE_CASES, shape)]
        for u in inputs:
            expected = np.asarray(reference(u)).tobytes()
            fresh = evaluate(u)
            assert type(fresh) is (float if shape == () else np.ndarray)
            assert np.asarray(fresh).tobytes() == expected
            out = np.full(shape, 7.0)
            assert evaluate(u, out=out) is out
            assert out.tobytes() == expected

    @pytest.mark.parametrize("evaluate", [f for f, _ in IN_PLACE_CASES.values()], ids=IN_PLACE_CASES)
    def test_out_must_not_overlap_or_reshape_the_input(self, evaluate):
        u = np.linspace(-1.0, 1.0, 6)
        with pytest.raises(ValueError, match="overlap"):
            evaluate(u, out=u)
        with pytest.raises(ValueError, match="overlap"):
            evaluate(u[:4], out=u[2:])
        with pytest.raises(ValueError, match="shape"):
            evaluate(u, out=np.empty(5))

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_normalization(self, kernel):
        lo, hi = (-0.5, 0.5) if kernel.halfwidth < math.inf else (-40.0, 40.0)
        assert integrate(lambda u: kernel_eval(kernel, u), lo, hi) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_constants_match_quadrature(self, kernel):
        lo, hi = (-0.5, 0.5) if kernel.halfwidth < math.inf else (-np.inf, np.inf)
        r_k, _ = scipy_quad(lambda u: kernel_eval(kernel, u) ** 2, lo, hi, epsabs=1e-13)
        k2, _ = scipy_quad(lambda u: u * u * kernel_eval(kernel, u), lo, hi, epsabs=1e-13)
        assert r_k == pytest.approx(kernel.roughness, abs=1e-11)
        assert k2 == pytest.approx(kernel.second_moment, abs=1e-11)


def _parabolic_moments_mpmath(x: float, h: float) -> tuple[float, float]:
    """e0 = int K(u) phi(x + h u) du and a0 = int K(u)^2 phi(x + h u) du from
    the closed-form truncated-moment recursion at 60 digits.

    Its terms reach 16/h^4 times the window's normal mass, and cancel by up
    to 37 digits at h = 1e-8 and x = 8; the mass is a difference of upper
    tails for x > 0, so that it keeps its own digits.  That leaves at least
    15 correct digits on the grid the tests use.
    """
    with mpmath.workdps(60):
        x, h = mpmath.mpf(x), mpmath.mpf(h)
        a, b = x - h / 2, x + h / 2
        pa, pb = mpmath.npdf(a), mpmath.npdf(b)
        i0 = mpmath.ncdf(-a) - mpmath.ncdf(-b) if x > 0 else mpmath.ncdf(b) - mpmath.ncdf(a)
        i1 = pa - pb
        i2 = a * pa - b * pb + i0
        i3 = a * a * pa - b * b * pb + 2 * i1
        i4 = a**3 * pa - b**3 * pb + 3 * i2
        m0, m1, m2, m3, m4 = (i / h for i in (i0, i1, i2, i3, i4))
        quad = m2 - 2 * x * m1 + x * x * m0
        quart = m4 - 4 * x * m3 + 6 * x * x * m2 - 4 * x**3 * m1 + x**4 * m0
        e0 = 1.5 * (m0 - 4 / h**2 * quad)
        a0 = 2.25 * (m0 - 8 / h**2 * quad + 16 / h**4 * quart)
        return float(e0), float(a0)


def _full_epan_moments(x: float, h: float) -> tuple[float, float]:
    """`_epan_moments`' e0 and a0 with phi's factor e^(-c^2/2) put back."""
    c, e0, a0 = _epan_moments(x, h)
    return math.exp(-0.5 * c * c) * e0, math.exp(-0.5 * c * c) * a0


def _moments(kernel, x, p, n, h):
    """The estimator's mean, int K(u)^2 f(x + h u) du and variance at x,
    recovered from `exact_mse_kernel`: the mean is bias + f(x), the variance
    sd^2, and the kernel-square integral h (n variance + mean^2)."""
    r = exact_mse_kernel(kernel, x, p, n, h)
    mean = r.bias + std_normal_pdf((x - p.mu) / p.sigma) / p.sigma
    variance = r.sd**2
    return mean, h * (n * variance + mean * mean), variance


def _normal_kernel_sd_mpmath(x: float, h: float, n: int) -> float:
    """sqrt((a0/h - e0^2)/n) for the normal kernel at 60 digits, from the
    closed forms e0 = phi(x/s1)/s1 and a0 = phi(x/s2)/(s2 2 sqrt(pi)), with
    s1^2 = 1 + h^2 and s2^2 = 1 + h^2/2."""
    with mpmath.workdps(60):
        x, h = mpmath.mpf(x), mpmath.mpf(h)
        s1, s2 = mpmath.sqrt(1 + h * h), mpmath.sqrt(1 + h * h / 2)
        e0 = mpmath.npdf(x / s1) / s1
        a0 = mpmath.npdf(x / s2) / (s2 * 2 * mpmath.sqrt(mpmath.pi))
        return float(mpmath.sqrt((a0 / h - e0 * e0) / n))


def _normal_kernel_bias_rmse_mpmath(x: float, p: NormalParams, n: int, h: float) -> tuple[float, float]:
    """Bias and root MSE of the normal kernel from the closed forms of
    `_normal_kernel_sd_mpmath`, with digits enough for a0/h - e0^2, whose
    terms agree to about 1/h^2 relative."""
    with mpmath.workdps(40 + 2 * max(0, int(math.log10(h / p.sigma)))):
        y, h = (mpmath.mpf(x) - p.mu) / p.sigma, mpmath.mpf(h) / p.sigma
        s1, s2 = mpmath.sqrt(1 + h * h), mpmath.sqrt(1 + h * h / 2)
        e0 = mpmath.npdf(y / s1) / s1
        a0 = mpmath.npdf(y / s2) / (s2 * 2 * mpmath.sqrt(mpmath.pi))
        bias = e0 - mpmath.npdf(y)
        return float(bias / p.sigma), float(mpmath.sqrt(bias * bias + (a0 / h - e0 * e0) / n) / p.sigma)


class TestExactMoments:
    def test_normal_kernel_center(self):
        mean, _, _ = _moments(NORMAL_KERNEL, 0.0, STD_NORMAL, 5, 1.0)
        assert mean == pytest.approx(phi(0.0) / math.sqrt(2.0), rel=1e-13)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_delta_limit(self, kernel):
        # h -> 0: mean -> f(x), kernel-square factor -> R(K) f(x)
        x = 0.8
        mean, kernel_sq_mean, _ = _moments(kernel, x, STD_NORMAL, 10, 1e-6)
        assert mean == pytest.approx(phi(x), rel=1e-8)
        assert kernel_sq_mean == pytest.approx(kernel.roughness * phi(x), rel=1e-8)

    @pytest.mark.parametrize("x", [0.0, 0.7, 1.9])
    @pytest.mark.parametrize("h", [0.05, 0.4, 1.0, 2.9])
    def test_parabolic_closed_forms_vs_quadrature(self, x, h):
        e0, a0 = _full_epan_moments(x, h)
        e_oracle, _ = scipy_quad(
            lambda u: 1.5 * (1.0 - 4.0 * u * u) * phi(x + h * u), -0.5, 0.5, epsabs=1e-14
        )
        a_oracle, _ = scipy_quad(
            lambda u: (1.5 * (1.0 - 4.0 * u * u)) ** 2 * phi(x + h * u), -0.5, 0.5, epsabs=1e-14
        )
        assert e0 == pytest.approx(e_oracle, abs=1e-10)
        assert a0 == pytest.approx(a_oracle, abs=1e-10)

    @pytest.mark.parametrize("h", [1e-8, 0.1, 0.2, 0.25, 1.0, 4.24, 8.0, 12.0, 1e4])
    def test_parabolic_moments_against_mpmath(self, h):
        # the closed forms cancelled: up to 8e6 relative off on this grid at
        # h = 0.2 and 350 at h = 1, both at x = 8
        for x in (0.0, 1.1, -1.1, 2.7, 4.5, 6.0, 8.0):
            e0, a0 = _full_epan_moments(x, h)
            e0_oracle, a0_oracle = _parabolic_moments_mpmath(x, h)
            assert e0 == pytest.approx(e0_oracle, rel=1e-14, abs=0), x
            assert a0 == pytest.approx(a0_oracle, rel=1e-14, abs=0), x

    @pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, h):
        for call in (
            lambda: exact_mse_kernel(EPANECHNIKOV_KERNEL, 0.3, STD_NORMAL, 5, h),
            lambda: exact_mse_kernel(NORMAL_KERNEL, 0.3, STD_NORMAL, 5, h),
            lambda: mise_closed_normal_kernel(5, h),
            lambda: mise_closed_epan_kernel(5, h),
            lambda: mise_exact_generic(EPANECHNIKOV_KERNEL, STD_NORMAL, 5, h),
        ):
            with pytest.raises(ValueError, match="h must be positive and finite"):
                call()

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_variance_formula_against_quadrature(self, kernel):
        # n^-1 Var K_h(X - x) with general location and scale
        p = NormalParams(0.4, 1.6)
        x, h, n = 1.1, 0.9, 6

        def kh(t):
            return kernel_eval(kernel, (t - x) / h) / h

        def f(t):
            return phi((t - p.mu) / p.sigma) / p.sigma

        if kernel.halfwidth < math.inf:
            lo, hi = x - kernel.halfwidth * h, x + kernel.halfwidth * h
        else:
            lo, hi = -12.0, 12.0
        second, _ = scipy_quad(lambda t: kh(t) ** 2 * f(t), lo, hi, epsabs=1e-13, limit=400)
        first, _ = scipy_quad(lambda t: kh(t) * f(t), lo, hi, epsabs=1e-13, limit=400)
        oracle = (second - first * first) / n
        mean, _, variance = _moments(kernel, x, p, n, h)
        assert variance == pytest.approx(oracle, abs=1e-10)
        assert mean == pytest.approx(first, abs=1e-11)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_mean_integrates_to_one(self, kernel):
        p = NormalParams(0.0, 1.3)
        total = integrate(lambda x: _moments(kernel, x, p, 5, 0.8)[0], -14.0, 14.0)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("h", [100.0, 1e4, 1e6])
    def test_normal_kernel_variance_at_wide_bandwidths(self, h):
        # a0/h - e0^2 cancelled: at h = 1e4 sd read 0 at x = 0, where it is
        # 8.92e-14, and 3.2155e-13 at x = 3, where it is 3.888e-13
        xs = np.array([0.0, 1.7, 3.0, -3.0])
        got = exact_mse_kernel(NORMAL_KERNEL, xs, STD_NORMAL, 10, h).sd
        want = [_normal_kernel_sd_mpmath(x, h, 10) for x in xs.tolist()]
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_normal_kernel_variance_over_every_bandwidth(self):
        # from h = 1e-300, where h^2 underflows, to 1e300, where it overflows:
        # no warning (an error under this suite) and no ZeroDivisionError
        xs = np.array([0.0, 2.5])
        for h in (1e-300, 1e-200, 1e-8, 1e8, 1e200, 1e300):
            r = exact_mse_kernel(NORMAL_KERNEL, xs, STD_NORMAL, 10, h)
            assert np.all(np.isfinite(r.sd)) and np.all(r.sd >= 0)
            assert exact_mse_kernel(NORMAL_KERNEL, 0.0, STD_NORMAL, 10, h).sd == r.sd[0]
        # below h = 1e-100 the variance is a0/(n h), with a0 = R(K) phi(x)
        tiny = exact_mse_kernel(NORMAL_KERNEL, 0.0, STD_NORMAL, 10, 1e-200)
        assert tiny.sd == pytest.approx(math.sqrt(RF * PHI0 / (10 * 1e-200)), rel=1e-15)

    @pytest.mark.parametrize(
        "p, h",
        [
            (STD_NORMAL, 2.5e148),
            (STD_NORMAL, math.nextafter(2.5e148, math.inf)),
            (STD_NORMAL, 1e152),
            (STD_NORMAL, 1e300),
            (NormalParams(3.0, 1e-100), 1e52),
            (NormalParams(-1.0, 1e100), 1e300),
        ],
    )
    def test_normal_kernel_at_huge_bandwidths(self, p, h):
        # the clip of y at 1e150 gave bias phi(1e150/h)/h at every x past
        # 1e150 sigma from h/sigma = 2.5e148 up, and once h^2 overflowed, at
        # 1.34e154, bias -phi(y) everywhere; the points are x - mu = t h
        ts = np.array([0.0, 2.5e-148, 0.5, 1.0, 3.0, 8.0, 40.0])
        xs = p.mu + ts * h
        got = exact_mse_kernel(NORMAL_KERNEL, xs, p, 10, h)
        want = np.array([_normal_kernel_bias_rmse_mpmath(x, p, 10, h) for x in xs.tolist()])
        np.testing.assert_allclose(got.bias, want[:, 0], rtol=1e-14, atol=0)
        # the variance underflows everywhere here, and so does bias^2 where
        # |bias| < 1.5e-154, far out in t, where rmse must still be |bias|, not 0
        np.testing.assert_allclose(got.rmse, want[:, 1], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("sigma", [1.0, 1e-100])
    @pytest.mark.parametrize(
        "y, h, want",
        [
            (0.0, 1e70, 8.9206205807638536e-212),
            (1.16e77, 1.16e77, 5.6865236070276757e-156),
            (1e78, 1e78, 7.6517861656164411e-158),
            (0.0, 1e100, 8.9206205807638551e-302),
            (2e71, 1e70, 3.4917543337202466e-227),
            (1e152, 1e152, 7.6517861656164406e-306),
        ],
    )
    def test_normal_kernel_sd_where_the_variance_underflows(self, sigma, y, h, want):
        # 60-digit mpmath of sqrt(a0/(n h) (-expm1(-E))) at the standard scale:
        # the variance underflows at each point, and from h = 1.16e77 up
        # (1 + h^2)(2 + h^2) overflows too, but sd is a normal double; it read
        # 0 at every one
        got = exact_mse_kernel(NORMAL_KERNEL, y * sigma, NormalParams(0.0, sigma), 10, h * sigma).sd
        assert got == pytest.approx(want / sigma, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sigma", [1.0, 1e-100])
    @pytest.mark.parametrize(
        "y, want",
        [
            (37.0, 5.9213660426738214e-149),
            (38.0, 4.6590862969608761e-157),
            (39.0, 2.2252382714300943e-165),
            (40.0, 6.4511139546487117e-174),
        ],
    )
    def test_parabolic_sd_where_the_variance_underflows(self, sigma, y, want):
        # sqrt((a0/h - e0^2)/n) at h = 0.5, n = 10 from the truncated-moment
        # recursion of `_parabolic_moments_mpmath` at 120 digits, which 80-digit
        # Gauss-Legendre over 32 panels of u matches to 1e-19 (tanh-sinh over
        # 128 panels was 4e-14 off); the variance underflows from y = 38, where
        # sd was 7.5e-12 off, and read 0 from y = 39
        got = exact_mse_kernel(EPANECHNIKOV_KERNEL, y * sigma, NormalParams(0.0, sigma), 10, 0.5 * sigma).sd
        assert got == pytest.approx(want / sigma, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_overflowing_variance_names_the_bandwidth(self, kernel):
        # a0/(n h) leaves the double range at h = 5e-324, where the variance
        # used to come back inf after numpy's overflow warning
        for x in (0.0, np.array([40.0, 0.0])):
            with pytest.raises(ValueError, match=r"h/sigma=5e-324 is too small: the variance overflows"):
                exact_mse_kernel(kernel, x, STD_NORMAL, 10, 5e-324)
        # far out, where a0 underflows to 0, nothing overflows; sd is formed
        # from factors there, 9.14e-14 for the normal kernel and 1.885e-13
        # for the parabolic one, which read 0
        far = exact_mse_kernel(kernel, 40.0, STD_NORMAL, 10, 5e-324).sd
        if kernel is NORMAL_KERNEL:
            want = _normal_kernel_sd_mpmath(40.0, 5e-324, 10)
        else:
            # a0 = R(K) phi(40) and e0^2 is negligible beside a0/h at this h
            with mpmath.workdps(40):
                want = float(mpmath.sqrt(mpmath.mpf(6) / 5 * mpmath.npdf(40) / (10 * mpmath.mpf(5e-324))))
        assert far == pytest.approx(want, rel=1e-12, abs=0)

    def test_parabolic_variance_domain(self):
        # a0/h - e0^2 cancels as h grows: sd is 3.8e-11 relative off at
        # h = 32 (the variance 7.8e-11), so the parabolic kernel's pointwise
        # variance stops there
        n, h = 10, EPAN_VARIANCE_MAX_H
        for x in (0.0, 1.1, 2.7, 6.0):
            with mpmath.workdps(60):
                def moment(power):
                    return mpmath.quad(
                        lambda u: (1.5 * (1 - 4 * u * u)) ** power * mpmath.npdf(x + h * u),
                        [-0.5, -x / h, 0.5],
                    )

                want = float(mpmath.sqrt((moment(2) / h - moment(1) ** 2) / n))
            got = exact_mse_kernel(EPANECHNIKOV_KERNEL, x, STD_NORMAL, n, h).sd
            assert got == pytest.approx(want, rel=1e-10, abs=0), x
        for p in (STD_NORMAL, NormalParams(0.0, 0.5)):
            with pytest.raises(ValueError, match="defined up to h/sigma = 32"):
                exact_mse_kernel(EPANECHNIKOV_KERNEL, 0.0, p, n, 33.0 * p.sigma)


class TestExactMseKernel:
    def test_symmetry(self):
        p = NormalParams(-0.5, 2.0)
        for kernel in BOTH_KERNELS:
            for d in (0.4, 1.7):
                left = exact_mse_kernel(kernel, p.mu - d, p, 12, 1.1)
                right = exact_mse_kernel(kernel, p.mu + d, p, 12, 1.1)
                assert left.rmse**2 == pytest.approx(right.rmse**2, rel=1e-12)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_array_matches_pointwise(self, kernel):
        p = NormalParams(0.4, 1.3)
        xs = np.linspace(-4.0, 5.0, 37)
        for n, h in ((3, 1.9), (14, 0.8), (1000, 0.35)):
            arr = exact_mse_kernel(kernel, xs, p, n, h)
            each = np.array([exact_mse_kernel(kernel, float(x), p, n, h) for x in xs])
            assert arr.rmse.shape == arr.sd.shape == xs.shape
            assert np.abs(np.array(arr).T - each).max() < 1e-13

    @pytest.mark.parametrize("n", [3, 14, 100, 1000])
    def test_figure_points_against_oracle(self, n):
        # every stored 40-digit parabolic-kernel point of the figures, at the
        # rule-of-thumb bandwidth the figures use
        oracle = json.loads((Path(__file__).parents[1] / "bench" / "oracle.json").read_text())
        index, bias, sd = np.array(oracle["curves"][str(n)]["epan_kernel"]).T
        h = rule_of_thumb(EPANECHNIKOV_KERNEL, n).multiplier
        got = exact_mse_kernel(EPANECHNIKOV_KERNEL, -3.0 + 0.02 * index, STD_NORMAL, n, h)
        np.testing.assert_allclose(got.sd, sd, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got.bias, bias, rtol=0, atol=1e-15)

    def test_rmse_decomposition(self):
        r = exact_mse_kernel(EPANECHNIKOV_KERNEL, 0.6, STD_NORMAL, 14, 2.96)
        assert r.rmse**2 == pytest.approx(r.bias**2 + r.sd**2, rel=1e-12)

    def test_against_simulation(self):
        # one million replicates, normal kernel, off-center evaluation point
        n, B, x, h = 20, 10**6, 1.0, 0.5
        rng = substream(602214, 0)
        truth = phi(x)
        err_sum = 0.0
        err_sq_sum = 0.0
        chunk = 100_000
        for _ in range(B // chunk):
            draws = rng.standard_normal((chunk, n))
            fhat = np.exp(-0.5 * ((draws - x) / h) ** 2).sum(axis=1) * PHI0 / (n * h)
            e2 = (fhat - truth) ** 2
            err_sum += e2.sum()
            err_sq_sum += (e2**2).sum()
        mc_mse = err_sum / B
        mc_se = math.sqrt((err_sq_sum / B - mc_mse**2) / B)
        exact = exact_mse_kernel(NORMAL_KERNEL, x, STD_NORMAL, n, h).rmse**2
        assert abs(exact - mc_mse) < 3.0 * mc_se


class TestSelfConvolution:
    def test_peak_edge_and_midpoint(self):
        assert gk_epanechnikov(0.0) == pytest.approx(1.2, rel=1e-14)
        assert gk_epanechnikov(1.0) == 0.0
        assert gk_epanechnikov(-1.0) == 0.0
        assert gk_epanechnikov(0.5) == pytest.approx(0.4125, rel=1e-13)
        assert gk_epanechnikov(1.2) == 0.0

    def test_equals_convolution_quadrature(self):
        for u in np.linspace(-1.0, 1.0, 101):
            lo = -(1.0 - abs(u)) / 2.0
            if lo >= 0.0:
                oracle = 0.0
            else:
                oracle, _ = scipy_quad(
                    lambda t: kernel_eval(EPANECHNIKOV_KERNEL, t - u / 2.0)
                    * kernel_eval(EPANECHNIKOV_KERNEL, t + u / 2.0),
                    lo,
                    -lo,
                    epsabs=1e-14,
                )
            assert gk_epanechnikov(float(u)) == pytest.approx(oracle, abs=1e-10)

    def test_integrates_to_one(self):
        total, _ = scipy_quad(gk_epanechnikov, -1.0, 1.0, epsabs=1e-13)
        assert total == pytest.approx(1.0, abs=1e-11)
        normal_total, _ = scipy_quad(
            lambda u: kernel_self_convolution(NORMAL_KERNEL, u), -np.inf, np.inf, epsabs=1e-13
        )
        assert normal_total == pytest.approx(1.0, abs=1e-11)


GRID_N = (3, 10, 50)
GRID_H = (0.2, 0.5, 1.0)

# parabolic-kernel fixed-bandwidth MISE at 40 digits, from the mpmath
# `epan_mise(n, h)` quoted in tests/test_bandwidth.py; the (10^4, 0.7481) and
# (10^6, 0.2962) points are the table's rule bandwidths, rounded.  From
# h = 2 on the points straddle the switch to the closed form at h = 4.
EPAN_MISE_MPMATH = {
    (14, 0.208): 0.39196029470584557337,
    (1000, 0.25): 0.0045188601902009157183,
    (10**4, 0.7481): 0.00017298462500944447552,
    (10**6, 0.2962): 4.78369651384200397e-6,
    (10**8, 0.208): 3.01905274842771543e-7,
    (10**4, 2.0): 0.001815565767825571163608,
    (10**8, 2.5): 0.003968867307534420745138,
    (3, 3.5): 0.05302190258499139428258,
    (10**4, 4.0): 0.01818791268581180875943,
    (10**8, 6.0): 0.05097718638360140956597,
    (10, 12.0): 0.140895429285721470671,
}


class TestMise:
    def test_single_observation_arithmetic(self):
        # n = 1, h = 1: closed normal-kernel value reduces to simple surds
        expected = RF * (1.0 + 0.0 - 2.0 / math.sqrt(1.5) + 1.0)
        assert mise_closed_normal_kernel(1, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.10353072, abs=5e-9)

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("h", GRID_H)
    def test_generic_matches_closed_normal(self, n, h):
        generic = mise_exact_generic(NORMAL_KERNEL, STD_NORMAL, n, h)
        assert generic.method == "quadrature"
        assert generic.value == pytest.approx(mise_closed_normal_kernel(n, h), abs=1e-10)

    @pytest.mark.parametrize("n", GRID_N)
    @pytest.mark.parametrize("h", GRID_H)
    def test_generic_matches_closed_parabolic(self, n, h):
        generic = mise_exact_generic(EPANECHNIKOV_KERNEL, STD_NORMAL, n, h)
        assert generic.value == pytest.approx(mise_closed_epan_kernel(n, h), abs=1e-10)

    @pytest.mark.parametrize("h", [100.0, 200.0, 1e3, 1e4, 1e6])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_generic_matches_closed_normal_at_wide_bandwidths(self, h, sigma):
        # g(h u) narrows like 1/h; a fixed span in u missed it from h = 200 on
        p = NormalParams(0.0, sigma)
        generic = mise_exact_generic(NORMAL_KERNEL, p, 10, h).value
        assert generic == pytest.approx(mise_closed_normal_kernel(10, h / sigma) / sigma, rel=1e-12, abs=1e-10)

    def test_minimized_values_match_published_products(self):
        # best fixed-bandwidth MISE: 0.801 and 0.982 of the benchmarks
        best_normal = _minimize(lambda h: mise_closed_normal_kernel(10, h), 0.1, 2.5).fun
        assert best_normal == pytest.approx(0.02438, abs=2e-5)
        best_epan = _minimize(lambda h: mise_closed_epan_kernel(15, h), 0.5, 5.0).fun
        assert best_epan == pytest.approx(0.01849, abs=2e-5)

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.15, 2.0),
        st.integers(2, 60),
    )
    # bandwidths just above 0.2, where an earlier closed form's terms
    # cancelled to 1e-10; the pins guard against that cancellation
    @example(sigma=0.3, h_std=0.2421875, n=14)
    @example(sigma=0.3, h_std=0.232421875, n=14)
    def test_scale_identity(self, sigma, h_std, n):
        # (h_std * sigma) / sigma reconstructs h_std only to one ulp; the
        # tolerance covers that
        p = NormalParams(0.0, sigma)
        h = h_std * sigma
        for kernel in BOTH_KERNELS:
            scaled = mise_fixed_bandwidth(kernel, p, n, h)
            closed = (
                mise_closed_normal_kernel if kernel.name == "normal" else mise_closed_epan_kernel
            )
            assert scaled.value == pytest.approx(closed(n, h_std) / sigma, rel=1e-10, abs=1e-10)

    def test_generic_scale_identity(self):
        # the quadrature route must satisfy the same scale relation
        sigma, h_std, n = 2.7, 0.6, 8
        p = NormalParams(1.0, sigma)
        for kernel in BOTH_KERNELS:
            general = mise_exact_generic(kernel, p, n, h_std * sigma).value
            standard = mise_exact_generic(kernel, STD_NORMAL, n, h_std).value
            assert general == pytest.approx(standard / sigma, abs=1e-10)

    def test_oversmoothed_is_worse_than_optimum(self):
        best = _minimize(lambda h: mise_closed_normal_kernel(10, h), 0.1, 2.5)
        assert mise_closed_normal_kernel(10, 10.0) > best.fun

    def test_closed_forms_continuous_at_threshold(self):
        # the series and closed branches meet at the switch: on adjacent
        # doubles the function's own slope contributes nothing
        for n in (1, 14, 10**6):
            lo = mise_closed_epan_kernel(n, math.nextafter(MISE_SERIES_H, 0.0))
            hi = mise_closed_epan_kernel(n, MISE_SERIES_H)
            assert lo == pytest.approx(hi, rel=1e-12)
            assert lo > 0

    @pytest.mark.parametrize("n, h", sorted(EPAN_MISE_MPMATH))
    def test_parabolic_mise_against_mpmath(self, n, h):
        # below h = 1 the closed form's terms reach 32 sqrt(2)/h^5 and cancel
        # to between 6e-11 and 3.5e-4 relative; the series does not cancel.
        # The closed form is still 3.8e-13 off at (10^4, 2) and 1.3e-13 at
        # (10^8, 2.5), so the series runs up to h = 4
        assert mise_closed_epan_kernel(n, h) == pytest.approx(EPAN_MISE_MPMATH[n, h], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 10])
    def test_underflowing_bandwidth_terminates(self, n):
        # every series term underflows to zero here; the sum must still stop
        h = 1e-100
        assert mise_closed_epan_kernel(n, h) == pytest.approx(1.2 / (n * h), rel=1e-12)
        wide = mise_fixed_bandwidth(EPANECHNIKOV_KERNEL, NormalParams(0.0, 1e80), n, 1.0).value
        assert wide == pytest.approx(1.2 / n, rel=1e-12)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_overflowing_mise_raises(self, kernel):
        # the term 1/(n h) leaves the double range: it names the bandwidth,
        # where it used to return inf
        with pytest.raises(ValueError, match=r"h/sigma=5e-324 is too small: the MISE overflows"):
            mise_fixed_bandwidth(kernel, STD_NORMAL, 10, 5e-324)

    @pytest.mark.parametrize("h", [0.05, 0.15])
    def test_small_bandwidth_mise_against_quadrature(self, h):
        # the series branch must track the defining integrals, which the
        # raw closed form cannot do this far down in h
        n = 1000
        got = mise_closed_epan_kernel(n, h)
        oracle = mise_exact_generic(EPANECHNIKOV_KERNEL, STD_NORMAL, n, h).value
        assert got == pytest.approx(oracle, abs=1e-9)


class TestAsymptotics:
    def test_bandwidth_coefficients(self):
        h_norm = asymptotic_kernel_risk(NORMAL_KERNEL, STD_NORMAL, 1).bandwidth
        h_epan = asymptotic_kernel_risk(EPANECHNIKOV_KERNEL, STD_NORMAL, 1).bandwidth
        assert h_norm == pytest.approx(1.0592, abs=5e-5)
        assert h_epan == pytest.approx(4.6898, abs=5e-5)

    def test_sigma_scaling(self):
        p = NormalParams(0.0, 2.0)
        base = asymptotic_kernel_risk(NORMAL_KERNEL, STD_NORMAL, 100)
        scaled = asymptotic_kernel_risk(NORMAL_KERNEL, p, 100)
        assert scaled.bandwidth == pytest.approx(2.0 * base.bandwidth, rel=1e-13)
        assert scaled.amise == pytest.approx(base.amise / 2.0, rel=1e-13)

    def test_coefficient_from_raw_integrals(self):
        # rebuild the bandwidth coefficient from quadrature of the raw
        # roughness integrals
        curv, _ = scipy_quad(
            lambda x: ((x * x - 1.0) * phi(x)) ** 2, -np.inf, np.inf, epsabs=1e-13
        )
        for kernel, printed in ((NORMAL_KERNEL, 1.0592), (EPANECHNIKOV_KERNEL, 4.6898)):
            coeff = (kernel.roughness / kernel.second_moment**2) ** 0.2 * curv ** (-0.2)
            assert coeff == pytest.approx(printed, abs=5e-5)
            assert asymptotic_kernel_risk(kernel, STD_NORMAL, 32).bandwidth == pytest.approx(
                coeff * 32 ** (-0.2), rel=1e-10
            )

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_large_n_agreement_with_exact(self, kernel):
        n = 10**4
        closed = mise_closed_normal_kernel if kernel.name == "normal" else mise_closed_epan_kernel
        approx = asymptotic_kernel_risk(kernel, STD_NORMAL, n)
        exact_best = _minimize(
            lambda h: closed(n, h), 0.2 * approx.bandwidth, 3.0 * approx.bandwidth
        ).fun
        assert exact_best / approx.amise == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("n", [10, 50])
    def test_flat_minimum(self, n):
        best = _minimize(lambda h: mise_closed_normal_kernel(n, h), 0.1, 3.0)
        stretched = mise_closed_normal_kernel(n, 1.05 * best.x)
        assert (stretched - best.fun) / best.fun < 0.01
