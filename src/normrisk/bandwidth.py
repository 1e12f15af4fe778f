"""Optimal bandwidth constants and the real MISE of data-driven bandwidths.

The practical bandwidth rule is h = a * sigma_hat with a deterministic
multiplier a.  Because the multiplier couples the bandwidth to the scale
estimate, the MISE actually incurred differs from the fixed-bandwidth
curve.  It is computed here exactly, from the parameter-free laws of the
standardized residual R = (X1 - mean_hat)/sigma_hat and the standardized
pair difference (X1 - X2)/sigma_hat, both independent of sigma_hat, and
independently by seeded Monte Carlo.

For the normal kernel both expectations over these laws are Kummer
functions M(1/2, (n-1)/2, -x): the pair term is closed, and the
estimate-truth term is one integral over the scaled-chi law of sigma_hat
(the fixed-bandwidth analogue is Marron & Wand 1992).  For the parabolic
kernel, and as the cross-check of that route, `_real_mise_nested`
integrates against the two ancillary densities directly.  Both are
polynomial on a bounded support; substituting t = edge * sin(theta) turns
them into smooth trigonometric integrands that adaptive quadrature resolves
quickly even for large n, where they concentrate sharply.  Under that map
both densities carry the same weight, so both terms are one adaptive
integral over theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernels import (
    EPANECHNIKOV_KERNEL,
    Kernel,
    gk_epanechnikov,
    kernel_eval,
    kernel_self_convolution,
)
from .numerics import (
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    MinimizationError,
    _bisect,
    _check_sample_size,
    gamma_half_ratio,
    integrate,
    kummer_m_half,
    scaled_chi_expectation,
    scaled_chi_inverse_mean,
    std_normal_pdf,
)
from .parametric import MiseReport, NORMAL_ROUGHNESS, TWO_SQRT_PI, NormalParams

#: search brackets for the bandwidth constant, per kernel
CONSTANT_BRACKETS = {"normal": (0.5, 3.0), "epan": (2.0, 10.0)}

#: the real MISE's own quadrature target, a digit below the package default
REAL_MISE_TOL = 1e-11


@dataclass(frozen=True)
class BandwidthRule:
    """Data-driven bandwidth h = multiplier * sigma_hat."""

    kernel: Kernel
    multiplier: float

    def __post_init__(self) -> None:
        if not self.multiplier > 0:
            raise ValueError(f"multiplier must be positive, got {self.multiplier!r}")

    def bandwidth(self, p: NormalParams) -> float:
        """The rule's bandwidth in the units of p where sigma_hat is sigma: multiplier * sigma."""
        return p.rescale(self.multiplier, -1)


@dataclass(frozen=True)
class McConfig:
    """Replicate count, evaluation points per replicate, and stream seed."""

    replicates: int
    eval_points: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("replicates", "eval_points", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 1 or self.eval_points < 1:
            raise ValueError("replicates and eval_points must be at least 1")
        # the Philox key is an unsigned 128-bit integer
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")


@lru_cache(maxsize=None)
def _epan_slope_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # With g(y) = exp(-y^2/4)/(2 sqrt(pi)) the N(0, 2) density, the parabolic
    # kernel's pair term P(h) = int g_K(u) g(hu) du has the derivative
    # P'(h) = -h int_0^1 u^2 g_K(u) g(hu) du and its overlap term
    # O(h) = int K(u) g(hu) du has O'(h) = -h int_0^1/2 u^2 K(u) g(hu) du.
    # Both integrands are entire, and a 32-point Gauss-Legendre rule has them
    # to 1e-15 for every h the brackets allow (h < 9).  Returned: -u^2/4 at
    # the nodes mapped onto [0, 1], then onto [0, 1/2], and the weights of
    # the two integrals without g(hu)
    x, w = _LEGENDRE_NODES, _LEGENDRE_WEIGHTS
    u_pair, u_overlap = 0.5 * (x + 1.0), 0.25 * (x + 1.0)
    w_pair = 0.5 * w * u_pair**2 * gk_epanechnikov(u_pair) / TWO_SQRT_PI
    w_overlap = 0.25 * w * u_overlap**2 * kernel_eval(EPANECHNIKOV_KERNEL, u_overlap) / TWO_SQRT_PI
    return -0.25 * np.concatenate((u_pair, u_overlap)) ** 2, w_pair, w_overlap


def _mise_slope(kernel_name: str, n: int) -> Callable[[float], float]:
    """h -> dMISE/dh at sample size n, up to a positive factor."""
    if kernel_name == "normal":
        def slope(h: float) -> float:  # times 2 sqrt(pi)
            return (
                -1.0 / (n * h * h)
                - (1.0 - 1.0 / n) * h * (1.0 + h * h) ** -1.5
                + h * (1.0 + 0.5 * h * h) ** -1.5
            )

        return slope
    exponent, w_pair, w_overlap = _epan_slope_rule()
    weights = np.concatenate(((1.0 - 1.0 / n) * w_pair, -2.0 * w_overlap))

    def slope(h: float) -> float:  # 1.2/(nh) + (1 - 1/n) P(h) - 2 O(h), differentiated
        return -1.2 / (n * h * h) - h * float(weights @ np.exp(exponent * (h * h)))

    return slope


@lru_cache(maxsize=None)
def _optimal_constant(kernel_name: str, n: int) -> float:
    # bisection on the sign of dMISE/dh down to adjacent doubles: the MISE
    # itself is flat at its minimum, so its argmin is only good to sqrt(eps)
    slope = _mise_slope(kernel_name, n)
    scale = n ** (-0.2)
    lo, hi = CONSTANT_BRACKETS[kernel_name]
    if not slope(lo * scale) < 0.0 < slope(hi * scale):
        raise MinimizationError(
            f"the MISE minimum at n={n} is not inside the bracket ({lo}, {hi})"
        )
    return _bisect(lambda c: slope(c * scale), lo, hi)


def optimal_bandwidth_constant(kernel: Kernel, n: int) -> float:
    """Constant minimizing the exact MISE over bandwidths c * n^(-1/5).

    The root of the MISE's derivative, in closed form (normal kernel) or as
    two Gauss-Legendre sums (parabolic kernel), bisected to the last bit:
    within 5e-14 relative of 40-digit mpmath up to n = 10^6.  Near the root
    the computed slope's sign can change several times within a few hundred
    ulps (for the normal kernel at 455 of the n from 2 to 1000), so the
    result is the sign change this bisection finds among them: it and a
    double next to it bracket one.  The minimum is interior to the
    per-kernel bracket for every n; were it not, MinimizationError would be
    raised rather than an edge returned.
    """
    _check_sample_size(n, 2)
    return _optimal_constant(kernel.name, n)


def rule_of_thumb(kernel: Kernel, n: int) -> BandwidthRule:
    """The practical rule: optimal constant divided by n^(1/5)."""
    const = optimal_bandwidth_constant(kernel, n)
    return BandwidthRule(kernel=kernel, multiplier=const * n ** (-0.2))


def _ancillary_shape(n: int) -> tuple[float, float, float]:
    """The residual density's constant and edge, and the pair difference's edge.

    The pair-difference density has the same shape at the scale
    pair_edge / residual_edge, so under t = edge * sin(theta) both densities
    carry the same weight const * edge * cos(theta)^(n-3).
    """
    log_const = (
        math.log(gamma_half_ratio(0.5 * (n - 2)))
        - 0.5 * math.log(math.pi)
        + 0.5 * math.log(n)
        - math.log(n - 1)
    )
    return math.exp(log_const), (n - 1) / math.sqrt(n), math.sqrt(2.0 * (n - 1))


def _support_expectation(
    fn: Callable[[np.ndarray], np.ndarray],
    const: float,
    edge: float,
    n: int,
    points: tuple[float, ...] = (),
) -> float | np.ndarray:
    """Integral of fn against a bounded-power density via the sine map.

    The substitution t = edge*sin(theta) yields const*edge*cos(theta)^(n-3)
    times fn, a smooth integrand; fn may return any leading shape.  For
    large n the cosine power localizes near zero; the integration range is
    clipped where the weight has fallen by e^-45 relative to its peak.
    `points` are in theta.  The tolerance is the real MISE's own.
    """
    if n > 3:
        theta_cap = math.acos(math.exp(-45.0 / (n - 3)))
    else:
        theta_cap = 0.5 * math.pi
    theta_max = min(theta_cap, 0.5 * math.pi * (1.0 - 1e-12))

    def integrand(theta):
        return fn(edge * np.sin(theta)) * const * edge * np.cos(theta) ** (n - 3)

    return integrate(integrand, -theta_max, theta_max, REAL_MISE_TOL, points=points)


def expected_density_at(n: int, w):
    """Mean of the true standard normal density at mean_hat + w * sigma_hat,
    averaged over the sampling distribution of the two estimates.

    A heavy-tailed bell curve in w that tends to the normal density as n
    grows.  Not a probability density: its integral over w equals the mean
    inverse scale estimate.
    """
    _check_sample_size(n, 2)
    w = np.asarray(w, dtype=float)
    ratio = n / (n + 1.0)
    out = (
        math.sqrt(ratio)
        / math.sqrt(2.0 * math.pi)
        * (1.0 + ratio * w * w / (n - 1.0)) ** (-0.5 * (n - 1.0))
    )
    return float(out) if out.ndim == 0 else out


def _real_mise(
    rule: BandwidthRule, p: NormalParams, n: int, pair_overlap: float, truth_overlap: float
) -> MiseReport:
    """Assemble the real MISE at the scale of p from the two standard-scale
    overlap expectations.

    E int f_hat^2 is the roughness term plus (1 - 1/n) E(1/Z) times the
    pair overlap; the estimate-truth overlap enters twice; the truth adds
    its own roughness.
    """
    mean_inv_scale = scaled_chi_inverse_mean(n)
    term_rough = rule.kernel.roughness / (n * rule.multiplier) * mean_inv_scale
    term_pair = (1.0 - 1.0 / n) * mean_inv_scale * pair_overlap
    value = term_rough + term_pair - 2.0 * truth_overlap + NORMAL_ROUGHNESS
    return MiseReport(value=p.rescale(value, 1), method="quadrature")


def real_mise_exact(rule: BandwidthRule, p: NormalParams, n: int) -> MiseReport:
    """Exact MISE actually incurred by the bandwidth rule h = a * sigma_hat.

    Defined from n = 3 on.  The risk at a normal of scale sigma is the
    standard one divided by sigma (ValueError where that leaves the normal
    doubles).  At the standard scale, for the normal kernel, with
    b = (n-1)/2 and e^2 = (n-1)^2/n:

    * the pair overlap is M(1/2, b, -(n-1)/(2a^2)) / (2a sqrt(pi)), because
      the squared pair difference over 2(n-1) sigma_hat^2 is Beta(1/2, b - 1/2);
    * the estimate-truth overlap is the integral over the scaled-chi law of
      Z = sigma_hat of M(1/2, b, -z^2 e^2/(2 s^2)) / sqrt(2 pi s^2), with
      s^2 = 1 + 1/n + a^2 z^2, because R^2/e^2 is Beta(1/2, b - 1/2) too.

    The parabolic kernel, and the normal kernel at n = 3, take the nested
    route of `_real_mise_nested`.  At n = 3 (b = 1) the scaled-chi integral
    takes 10 panels even for a constant integrand, the whole nested route 6,
    and that route is within 2.0e-12 of 30-digit mpmath there.
    """
    _check_sample_size(n, 3)
    if rule.kernel.name != "normal" or n == 3:
        return _real_mise_nested(rule, p, n)
    a = rule.multiplier
    b = 0.5 * (n - 1)
    e2 = (n - 1) ** 2 / n
    pair_overlap = kummer_m_half(b, (n - 1) / (2.0 * a * a)) / (2.0 * a * math.sqrt(math.pi))

    def truth_overlap(z):
        s2 = 1.0 + 1.0 / n + (a * z) ** 2
        return kummer_m_half(b, z * z * e2 / (2.0 * s2)) / np.sqrt(2.0 * math.pi * s2)

    truth = scaled_chi_expectation(truth_overlap, n, REAL_MISE_TOL)
    return _real_mise(rule, p, n, pair_overlap, truth)


def _real_mise_nested(rule: BandwidthRule, p: NormalParams, n: int) -> MiseReport:
    """The real MISE of either kernel by quadrature against the ancillary densities.

    The pair overlap E_S K*K(S/a)/a over the pair difference S and the
    estimate-truth overlap E_R int K(u) f(R + a u) du over the residual R
    (f: `expected_density_at`) are one integral of shape (2,): under the
    sine map both laws carry the same weight, and at each theta
    S = R * pair_edge / residual_edge.  The inner integral over u is a fixed
    32-point Gauss-Legendre sum on equal panels of the kernel's support, or
    of |u| <= 8.5 for the normal kernel: ceil(a/4.5) panels for a bounded
    kernel, 8 ceil(a/3) for the normal one, so that they resolve f(R + a u)
    (checked for a from 0.001 to 1000).  Defined from n = 3 on: the
    ancillary densities are then edge-singular but integrable, and the sine
    substitution absorbs the singularity exactly.  The normal kernel's
    `real_mise_exact` is checked against it.
    """
    _check_sample_size(n, 3)
    kernel = rule.kernel
    a = rule.multiplier
    k_const, r_edge, s_edge = _ancillary_shape(n)
    pair_scale = s_edge / (r_edge * a)

    # f(R + a u) narrows like 1/a in u, so past a = 4.5 (bounded kernel) or
    # a = 3 (normal kernel) the panels multiply with a
    if kernel.name == "normal":
        span, panels = 8.5, 8 * math.ceil(a / 3.0)
    else:
        span, panels = kernel.halfwidth, math.ceil(a / 4.5)
    half = span / panels
    u = (half * (2 * np.arange(panels) + 1 - panels)[:, None] + half * _LEGENDRE_NODES).ravel()
    wk = np.tile(half * _LEGENDRE_WEIGHTS, panels) * kernel_eval(kernel, u)

    def overlaps(r):
        pair = kernel_self_convolution(kernel, r * pair_scale) / a
        truth = expected_density_at(n, r[..., None] + a * u) @ wk
        return np.stack((pair, truth))

    # a bounded kernel's pair term leaves its support where |S| = 2 a halfwidth
    edge = math.asin(min(1.0, 2.0 * kernel.halfwidth * a / s_edge))
    pair_overlap, truth = _support_expectation(
        overlaps, k_const, r_edge, n, points=(-edge, 0.0, edge)
    ).tolist()
    return _real_mise(rule, p, n, pair_overlap, truth)


def real_mise_mc(rule: BandwidthRule, p: NormalParams, n: int, mc: McConfig) -> MiseReport:
    """Monte Carlo estimate of the same real MISE, with standard error, both
    drawn at the standard scale and divided by sigma.

    Replicate i draws n + m standard normals (m = `eval_points`) from the
    stream of `Philox(key=seed).jumped(i)`, whose counter starts at
    [0, 0, i, 0]; the counter is set there directly rather than jumped to.
    So its draws depend only on (seed, i), and results are bit-identical
    however replicates are grouped.  It scores the estimator at its m fresh
    observations through the importance-weighted squared-error average.
    Replicates are drawn and scored in blocks of about 2**16 / (m n), each
    block in place in one (block, m, n) buffer of scaled differences and
    one of kernel values, so the draw and scoring buffers stay flat in the
    replicate count and the sample size; only the scores, one float per
    replicate, grow with the count.  numpy loads `np.random` on its first
    use here, so no other command pays for it.
    """
    _check_sample_size(n, 2)
    m = mc.eval_points
    block = min(max(1, 2**16 // (m * n)), mc.replicates)
    bits = np.random.Philox(key=mc.seed)
    draw = np.random.Generator(bits).standard_normal
    # a fresh Philox state as plain ints, which the state setter reads
    # faster than numpy arrays; only the counter changes between replicates
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [mc.seed % 2**64, mc.seed >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = np.empty((block, n + m))
    diffs = np.empty((block, m, n))
    kernel_values = np.empty_like(diffs)
    scores = np.empty(mc.replicates)
    for start in range(0, mc.replicates, block):
        count = min(block, mc.replicates - start)
        for i, row in zip(range(start, start + count), draws):
            counter[2], counter[3] = i % 2**64, i >> 64
            bits.state = state
            draw(out=row)
        sample, fresh = draws[:count, :n], draws[:count, n:]
        h = rule.multiplier * sample.std(axis=1, ddof=1)
        u = np.subtract(sample[:, None, :], fresh[:, :, None], out=diffs[:count])
        u /= h[:, None, None]
        estimate = kernel_eval(rule.kernel, u, out=kernel_values[:count]).sum(axis=2)
        estimate /= (n * h)[:, None]
        root_truth = np.sqrt(std_normal_pdf(fresh))
        # (estimate/root - root)^2 averaged over the m points, in place: np.mean's own sum and division
        estimate /= root_truth
        estimate -= root_truth
        np.square(estimate, out=estimate)
        np.divide(np.add.reduce(estimate, axis=1), m, out=scores[start : start + count])
    value = p.rescale(float(scores.mean()), 1)
    std_error = float(scores.std(ddof=1) / math.sqrt(mc.replicates)) if mc.replicates > 1 else math.inf
    return MiseReport(value=value, method="monte_carlo", std_error=p.rescale(std_error, 1))
