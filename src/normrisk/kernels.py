"""Exact and asymptotic risk of kernel density estimators of a normal density.

Supports the standard normal kernel and the parabolic (Epanechnikov-type)
kernel on [-1/2, 1/2].  The MISE is available in closed form for both
kernels, and so are the normal kernel's pointwise moments; the tests
cross-check the closed forms against a quadrature route through the
general MISE identity.

The closed Epanechnikov expressions combine terms of size h^-4 or h^-5
whose sum is O(1), so double precision loses digits as the standardized
bandwidth shrinks.  The pointwise moments are therefore one fixed 32-point
Gauss-Legendre sum of positive terms at every h, within 3e-15 relative of
60-digit mpmath for |x| <= 8; below h = 4 the MISE is one Taylor series in
h^2, within 1.1e-15 relative of 40-digit mpmath, and the closed form from
h = 4 up is within 2.8e-14.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    _LOG_SQRT_2PI,
    _check_sample_size,
    _check_out,
    std_normal_pdf,
)
from .parametric import MiseReport, NormalParams, NORMAL_ROUGHNESS, PointRisk, TWO_SQRT_PI, _point_risk


#: the only kernels: name, integral of K(u)^2, integral of u^2 K(u), support half-width
_KERNEL_TABLE = (("normal", NORMAL_ROUGHNESS, 1.0, math.inf), ("epan", 1.2, 0.05, 0.5))


@dataclass(frozen=True)
class Kernel:
    """The normal or the parabolic kernel and its risk constants; any other raises ValueError."""

    name: str
    roughness: float
    second_moment: float
    halfwidth: float

    def __post_init__(self) -> None:
        if astuple(self) not in _KERNEL_TABLE:
            raise ValueError(f"{self!r} is not the normal or the parabolic kernel")


NORMAL_KERNEL, EPANECHNIKOV_KERNEL = (Kernel(*row) for row in _KERNEL_TABLE)
KERNELS = {k.name: k for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)}

#: standardized bandwidth below which the Epanechnikov MISE is summed as a series
MISE_SERIES_H = 4.0


def kernel_eval(kernel: Kernel, u, out: np.ndarray | None = None):
    """Kernel density K(u); elementwise on arrays.

    With `out`, an array of u's shape that does not overlap u, the values
    are written there in place and `out` is returned.  The arithmetic is
    the same either way, so the two results agree bit for bit.
    """
    u = np.asarray(u, dtype=float)
    if kernel.name == "normal":
        return std_normal_pdf(u, out)
    _check_out(u, out)
    # 1.5 (1 - 4u^2) is negative exactly where |u| > 1/2, and fmax also
    # sends NaN to 0
    k = np.multiply(u, 4.0, out=out)
    k = np.multiply(k, u, out=out)
    k = np.subtract(1.0, k, out=out)
    k = np.multiply(k, 1.5, out=out)
    k = np.fmax(k, 0.0, out=out)
    return float(k) if out is None and np.ndim(k) == 0 else k


def gk_epanechnikov(u):
    """Self-convolution of the parabolic kernel: density of a difference of
    two independent draws.  Even, supported on [-1, 1], peak 6/5 at zero."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.where(
        u <= 1.0,
        1.2 * (1.0 - 5.0 * u**2 + 5.0 * u**3 - u**5),
        0.0,
    )
    return float(out) if out.ndim == 0 else out


def kernel_self_convolution(kernel: Kernel, u):
    """Density of the difference of two independent kernel draws."""
    if kernel.name == "normal":
        return std_normal_pdf(np.asarray(u, dtype=float) / math.sqrt(2.0)) / math.sqrt(2.0)
    return gk_epanechnikov(u)


def _epan_moments(y, h: float):
    """The window's nearest approach to 0, c = max(|y| - h/2, 0), and
    e0 = int K(u) phi(y + h u) du and a0 = int K(u)^2 phi(y + h u) du over
    |u| <= 1/2 for the parabolic kernel with phi's factor e^(-c^2/2) taken
    out, so that neither underflows far out in y; elementwise in y.

    Each is a fixed 32-point Gauss-Legendre sum of positive terms, so
    nothing cancels; the closed forms add terms up to 16/h^4 times the
    window's normal mass.  The window is clipped to |y + h u| <= reach =
    sqrt(c^2 + 80): beyond, phi is below e^-40 of its largest value on the
    window.  The span of phi left is at most 8 wide for h <= 8, one panel,
    and at most 18 wide above, two equal panels.  The panel count depends
    on h alone, so a point's value does not depend on the other points of
    y.  At c = 0 the sums are those of phi itself, bit for bit.
    """
    y = np.asarray(y, dtype=float)
    c = np.maximum(np.abs(y) - 0.5 * h, 0.0)
    reach = np.sqrt(c**2 + 80.0)
    panels = 1 if h <= 8.0 else 2
    lo = np.maximum(-0.5, (-reach - y) / h)[..., None]
    half = (np.minimum(0.5, (reach - y) / h)[..., None] - lo) / (2 * panels)
    offsets = (2.0 * np.arange(panels)[:, None] + 1.0 + _LEGENDRE_NODES).ravel()
    u = lo + half * offsets
    k = kernel_eval(EPANECHNIKOV_KERNEL, u)
    # phi(z) e^(c^2/2), from z^2 - c^2 = (|z| - c)(|z| + c), which at c = 0 is
    # std_normal_pdf's own arithmetic
    z, c_ = np.abs(y[..., None] + h * u), c[..., None]
    phi = np.exp((z - c_) * -0.5 * (z + c_) - _LOG_SQRT_2PI)
    weighted = half * np.tile(_LEGENDRE_WEIGHTS, panels) * k * phi
    e0 = np.sum(weighted, axis=-1)
    a0 = np.sum(weighted * k, axis=-1)
    return (float(c), float(e0), float(a0)) if y.ndim == 0 else (c, e0, a0)


#: standardized bandwidth above which the parabolic kernel's pointwise
#: variance is rejected: its a0/h - e0^2 cancels, 7.8e-11 relative at 32
EPAN_VARIANCE_MAX_H = 32.0


def exact_mse_kernel(kernel: Kernel, x, p: NormalParams, n: int, h: float) -> PointRisk:
    """Exact pointwise bias, sd and root MSE of the estimator at bandwidth h.

    Elementwise in x: an array of points gives arrays of its shape.  At
    y = (x - mu)/sigma and h/sigma, with e0 = int K(u) phi(y + h u) du and
    a0 = int K(u)^2 phi(y + h u) du, the mean is e0 and n times the variance
    is a0/h - e0^2.  Both kernels form sd = e^(-t^2/4) spread/sqrt(h), with
    phi's factor e^(-t^2/2) at a distance t taken out of spread^2 =
    e^(t^2/2) (a0 - h e0^2)/n, so no factor leaves the doubles where sd
    does not.  The normal kernel's t is y/s2, with e0 = phi(y/s1)/s1,
    a0 = phi(t)/(2 sqrt(pi) s2), s1 = hypot(1, h) and s2 = hypot(1, h/sqrt(2));
    a0/h - e0^2 is (a0/h) (-expm1(-E)) with E = log(a0/(h e0^2)), free of
    cancellation.  The parabolic kernel's t is the window's nearest approach
    to 0 (`_epan_moments`), and its a0/h - e0^2 still cancels as h grows, so
    h/sigma > EPAN_VARIANCE_MAX_H raises ValueError; so does an h/sigma so
    small (subnormal, for one) that sd^2 overflows a double at some point of x.
    """
    _check_sample_size(n, 1)
    y = p.standardize(x)
    hs = p.standard_bandwidth(h)
    if not 0 < hs < math.inf:
        raise ValueError(f"h must be positive and finite, got {hs!r}")
    if kernel.name == "epan" and hs > EPAN_VARIANCE_MAX_H:
        raise ValueError(
            f"the parabolic kernel's pointwise variance is defined up to "
            f"h/sigma = {EPAN_VARIANCE_MAX_H:g}, got {hs!r}"
        )
    # where h is tiny sd^2 overflows, and (-reach - y)/h in `_epan_moments`;
    # the check below says so
    with np.errstate(over="ignore"):
        if kernel.name == "normal":
            s1, s2, r = math.hypot(1.0, hs), math.hypot(1.0, hs / math.sqrt(2.0)), 1.0 / hs
            # y/s1 and y/s2 from x itself, (x - mu)/hypot(sigma, h) and (x - mu)/hypot(sigma,
            # h/sqrt(2)) divided by s before sigma: y's clip at 1e150 never cuts them
            d = np.asarray(x, dtype=float) - p.mu
            t1, t = (NormalParams(0.0, p.sigma).standardize(d / s) for s in (s1, s2))
            e0 = std_normal_pdf(t1) / s1
            # E = (y/(s1 s2))^2/2 + log1p(r^2/(2 s2^2))/2, and below 1e-16 sqrt(E) is the
            # hypot of its terms' roots; r r is inf where h is tiny (1e-300), and -expm1(-E) = 1
            exponent = 0.5 * (t1 / s2) ** 2 + 0.5 * math.log1p(0.5 * (r / s2) * (r / s2))
            root = np.where(
                exponent < 1e-16,
                np.hypot(t1 / (math.sqrt(2.0) * s2), 0.5 * r / s2),
                np.sqrt(-np.expm1(-exponent)),
            )
            spread = root * math.sqrt(NORMAL_ROUGHNESS * std_normal_pdf(0.0) / n) / math.sqrt(s2)
        else:
            t, e0, a0 = _epan_moments(y, hs)
            factor = np.exp(-0.5 * t * t)
            spread = np.sqrt((a0 - hs * factor * e0 * e0) / n)
            e0 = factor * e0
        # spread/sqrt(h) first: every factor after it is at most 1, so no product
        # underflows before sd does
        sd = spread / math.sqrt(hs) * np.exp(-0.25 * t * t)
        if not np.isfinite(sd * sd).all():
            raise ValueError(f"h/sigma={hs!r} is too small: the variance overflows a double")
    return _point_risk(p, e0 - std_normal_pdf(y), sd)


def _overlap_term(h: float) -> float:
    """int K(u) g(h u) du for the parabolic kernel and standard normal
    difference density g: the estimator's mean at 0 and bandwidth h/sqrt(2),
    divided by sqrt(2)."""
    return _epan_moments(0.0, h / math.sqrt(2.0))[1] / math.sqrt(2.0)


def _pair_term(h: float) -> float:
    """int g_K(u) g(h u) du for the parabolic kernel.

    Its normal mass Phi(h/sqrt(2)) - 1/2 is erf(h/2)/2, and h/2 is exact.
    """
    c = h / math.sqrt(2.0)
    rt2 = math.sqrt(2.0)
    return (12.0 / (5.0 * h)) * (
        (1.0 - 10.0 / (h * h)) * 0.5 * math.erf(0.5 * h)
        + (20.0 * rt2 / h**3 - 32.0 * rt2 / h**5) * std_normal_pdf(0.0)
        + (rt2 / h - 12.0 * rt2 / h**3 + 32.0 * rt2 / h**5) * std_normal_pdf(c)
    )


def mise_closed_normal_kernel(n: int, h: float) -> float:
    """Closed-form exact MISE, normal kernel, standard normal estimand."""
    _check_sample_size(n, 1)
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    return NORMAL_ROUGHNESS * (
        1.0 / (n * h)
        + (1.0 - 1.0 / n) / math.sqrt(1.0 + h * h)
        - 2.0 / math.sqrt(1.0 + 0.5 * h * h)
        + 1.0
    )


def _mise_series_epan(n: int, h: float) -> float:
    """The parabolic-kernel MISE as one Taylor series in t = -h^2/4.

    With g the N(0, 2) density, the pair and overlap terms are g(0) times
    sum_k G_k t^k/k! and sum_k M_k t^k/k!, where G_k and M_k are the u^(2k)
    moments of the kernel's self-convolution and of the kernel.  Since
    G_0 = M_0 = 1 and G_1 = 2 M_1 = 1/10, the k = 0 and k = 1 terms and the
    truth's roughness g(0) leave only -1/n + h^2/(40 n); the terms from
    k = 2 on are summed until one falls below 1e-17 of their sum, or both
    underflow to zero, as they do for h below about 1e-76.
    """
    t = -0.25 * h * h
    keep = 1.0 - 1.0 / n
    power, tail = t, 0.0  # power: t^k / k!
    for k in itertools.count(2):
        power *= t / k
        g_k = 18.0 / ((k + 2) * (k + 3) * (2 * k + 1) * (2 * k + 3))
        m_k = 3.0 / (4.0**k * (2 * k + 1) * (2 * k + 3))
        term = (keep * g_k - 2.0 * m_k) * power
        tail += term
        if abs(term) <= 1e-17 * abs(tail):
            break
    return 1.2 / (n * h) + NORMAL_ROUGHNESS * (0.025 * h * h / n - 1.0 / n + tail)


def mise_closed_epan_kernel(n: int, h: float) -> float:
    """Closed-form exact MISE, parabolic kernel, standard normal estimand.

    Below h = MISE_SERIES_H the closed form's terms, as large as 32 sqrt(2)/h^5,
    cancel (3.8e-13 relative at h = 2, n = 10^4), and the MISE is summed as a
    series instead.
    """
    _check_sample_size(n, 1)
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if h < MISE_SERIES_H:
        return _mise_series_epan(n, h)
    return (
        1.2 / (n * h)
        + (1.0 - 1.0 / n) * _pair_term(h)
        - 2.0 * _overlap_term(h)
        + NORMAL_ROUGHNESS
    )


def mise_fixed_bandwidth(kernel: Kernel, p: NormalParams, n: int, h: float) -> MiseReport:
    """Exact MISE at a deterministic bandwidth, for a general normal estimand.

    Scale identity: the general case is the standard one at bandwidth
    h/sigma, divided by sigma.  ValueError where the standard one overflows
    a double: its term 1/(n h) does so for a tiny (subnormal, say) h/sigma.
    """
    closed = mise_closed_normal_kernel if kernel.name == "normal" else mise_closed_epan_kernel
    hs = p.standard_bandwidth(h)
    standard = closed(n, hs)
    if standard == math.inf:
        raise ValueError(f"h/sigma={hs!r} is too small: the MISE overflows a double")
    return MiseReport(value=p.rescale(standard, 1), method="closed_form")


class KernelAsymptotics(NamedTuple):
    bandwidth: float  # minimizer of the leading-order MISE
    amise: float      # leading-order MISE at that bandwidth


def asymptotic_kernel_risk(kernel: Kernel, p: NormalParams, n: int) -> KernelAsymptotics:
    """Large-sample optimal bandwidth and minimized leading-order MISE.

    For the standard normal estimand the curvature roughness is
    3/(8 sqrt(pi)), which yields the familiar bandwidth coefficients
    1.0592 (normal kernel) and 4.6898 (parabolic kernel).  The bandwidth
    scales as sigma and the AMISE as 1/sigma.
    """
    _check_sample_size(n, 1)
    curvature_roughness = 3.0 / (8.0 * math.sqrt(math.pi))
    rk, k2 = kernel.roughness, kernel.second_moment
    h_a = (rk / (k2 * k2)) ** 0.2 * curvature_roughness ** (-0.2) * n ** (-0.2)
    d_const = 1.25 * (rk * math.sqrt(k2)) ** 0.8 * curvature_roughness**0.2
    amise = d_const * n ** (-0.8) - 1.0 / TWO_SQRT_PI / n
    return KernelAsymptotics(bandwidth=p.rescale(h_a, -1), amise=p.rescale(amise, 1))
