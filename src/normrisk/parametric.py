"""Risk of normality-based parametric density estimators.

Covers the plug-in estimator (estimated mean and standard deviation
substituted into the normal density), the minimum-variance unbiased
density estimator, the shrinkage correction, and the asymptotic trace
formula for general smooth parametric families.

Every risk here reduces to the standard normal estimand: a general
(mu, sigma) target only rescales the answer, so the quadrature work is
done once in standardized coordinates.  The plug-in's pointwise mean and
second moment are expectations over the scaled-chi law of the scale
estimate, computed together as one array-valued integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .numerics import (
    DEFAULT_QUADRATURE,
    NumericsError,
    QuadratureConfig,
    _check_sample_size,
    _gamma_half_excess,
    gamma_half_ratio,
    integrate,
    scaled_chi_expectation,
    std_normal_pdf,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

#: integral of the squared standard normal density
NORMAL_ROUGHNESS = 1.0 / TWO_SQRT_PI

#: limit of n * sigma * MISE for the plug-in estimator
PLUGIN_AMISE_CONSTANT = 7.0 / (16.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class NormalParams:
    """Location and scale of the normal density being estimated."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


STD_NORMAL = NormalParams(0.0, 1.0)


@dataclass(frozen=True)
class PluginEstimate:
    """Estimated location and scale plugged into the normal density."""

    mu_hat: float
    sigma_hat: float

    def __post_init__(self) -> None:
        if not self.sigma_hat > 0:
            raise ValueError(f"sigma_hat must be positive, got {self.sigma_hat!r}")


@dataclass(frozen=True)
class MiseReport:
    """Integrated squared error expectation and how it was obtained."""

    value: float
    method: str  # closed_form | quadrature | monte_carlo
    std_error: Optional[float] = None

    def __post_init__(self) -> None:
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.value >= 0):
            raise ValueError(f"MISE value must be nonnegative, got {self.value!r}")
        if self.std_error is not None and not (self.std_error >= 0):
            raise ValueError("std_error must be nonnegative")


class MseParts(NamedTuple):
    bias: float
    variance: float
    mse: float


def plugin_density(x, est: PluginEstimate):
    """Normal density with estimated parameters, evaluated at x."""
    return std_normal_pdf((np.asarray(x, dtype=float) - est.mu_hat) / est.sigma_hat) / est.sigma_hat


def asymptotic_mse_plugin(x: float, p: NormalParams, n: int) -> float:
    """Leading-order pointwise MSE of the plug-in estimator.

    The two parts of the formula reflect the noise in the estimated mean
    and in the estimated standard deviation.
    """
    _check_sample_size(n, 2)
    y = (x - p.mu) / p.sigma
    phi = std_normal_pdf(y)
    return phi * phi * (y * y + 0.5 * (y * y - 1.0) ** 2) / (n * p.sigma * p.sigma)


def asymptotic_mise_plugin(p: NormalParams, n: int) -> float:
    """Leading-order MISE of the plug-in estimator."""
    _check_sample_size(n, 2)
    return PLUGIN_AMISE_CONSTANT / (n * p.sigma)


def conditional_moments(x, n: int, z):
    """Mean and second moment of the plug-in density value at x, given
    that the scale estimate equals z times the true scale.

    Standard normal estimand; elementwise over arrays of x or z.
    """
    _check_sample_size(n, 2)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("z must be positive")
    nz2 = n * z * z
    mean = math.sqrt(n) / (SQRT_2PI * np.sqrt(1.0 + nz2)) * np.exp(-0.5 * x * x * n / (1.0 + nz2))
    second = math.sqrt(n) / (2.0 * math.pi * z * np.sqrt(2.0 + nz2)) * np.exp(-x * x * n / (2.0 + nz2))
    if mean.ndim == 0:
        return float(mean), float(second)
    return mean, second


def exact_mse_plugin(
    x, p: NormalParams, n: int, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> MseParts:
    """Exact pointwise bias, variance and MSE of the plug-in estimator.

    Integrates both conditional moments against the scaled-chi law of the
    scale estimate, together as one array-valued integral.  x may be a
    float or an array: an array gives arrays of x's shape, every point and
    both moments to the configured tolerance.  Requires n >= 3: below that
    the second moment is not integrable.
    """
    _check_sample_size(n, 3)
    y = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    y_nodes = y[..., None]  # the quadrature nodes z on a last axis of their own

    mean0, second0 = scaled_chi_expectation(
        lambda z: np.stack(conditional_moments(y_nodes, n, z)), n, cfg
    )
    if y.ndim == 0:
        mean0, second0 = float(mean0), float(second0)
    bias = (mean0 - std_normal_pdf(y)) / p.sigma
    variance = (second0 - mean0 * mean0) / (p.sigma * p.sigma)
    return MseParts(bias=bias, variance=variance, mse=bias * bias + variance)


@lru_cache(maxsize=None)
def _mise_coefficient(n: int, cfg: QuadratureConfig) -> float:
    # n (1 + E(1/Z) - 2 E sqrt(2n / (1 + n (1 + Z^2)))), with no O(1) terms
    # left to cancel: 1/Z - 1 = -d/Z and, since 1 + q = (1 + n (1 + Z^2))/(2n),
    # 1 - sqrt(2n / (1 + n (1 + Z^2))) = -expm1(-log1p(q)/2), both O(d)
    def f(z):
        d = z - 1.0
        q = (1.0 + n * d * (z + 1.0)) / (2.0 * n)
        return -d / z - 2.0 * np.expm1(-0.5 * np.log1p(q))

    return n * scaled_chi_expectation(f, n, cfg)


def plugin_mise_coefficient(n: int, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """The stabilized MISE sequence: n * 2*sqrt(pi) * sigma * MISE.

    Decreases slowly and monotonically to 7/8 as n grows.
    """
    _check_sample_size(n, 3)
    return _mise_coefficient(n, cfg)


def exact_mise_plugin(
    p: NormalParams, n: int, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> MiseReport:
    """Exact MISE of the plug-in estimator, by quadrature."""
    value = plugin_mise_coefficient(n, cfg) / (n * TWO_SQRT_PI * p.sigma)
    return MiseReport(value=value, method="quadrature")


def _log_support_const(n: int) -> float:
    # normalizing constant of the standardized-residual density; shared by
    # the unbiased density estimator and the real MISE's ancillary densities
    return (
        math.log(gamma_half_ratio(0.5 * (n - 2)))
        - 0.5 * math.log(math.pi)
        + 0.5 * math.log(n)
        - math.log(n - 1)
    )


def umvu_density(x, est: PluginEstimate, n: int):
    """Unbiased estimator of the normal density value at x.

    A polynomial in the standardized residual, supported on the random
    interval |x - mu_hat| <= sigma_hat * (n-1)/sqrt(n) and zero outside.
    For n = 4 the exponent vanishes and the estimate is a rescaled
    indicator of that interval; n < 4 is rejected.
    """
    _check_sample_size(n, 4)
    x = np.asarray(x, dtype=float)
    r = (x - est.mu_hat) / est.sigma_hat
    edge = (n - 1) / math.sqrt(n)
    const = math.exp(_log_support_const(n)) / est.sigma_hat
    t = np.maximum(1.0 - n * r * r / (n - 1) ** 2, 0.0)
    out = np.where(np.abs(r) <= edge, const * np.power(t, 0.5 * n - 2.0), 0.0)
    return float(out) if out.ndim == 0 else out


def exact_mise_umvu(p: NormalParams, n: int) -> MiseReport:
    """Exact MISE of the unbiased density estimator, in closed form.

    At n = 3 the value is infinite (reported as such, not an error);
    the estimator requires n >= 3 to be defined at all.  For n >= 4,
    2 sqrt(pi) sigma MISE = expm1(log1p((2n-3)/((n-1)(n-3)))/2 + e((n-2)/2) - e(n-3))
    with e(x) = log(Gamma(x + 1/2)/Gamma(x)) - log(x)/2: every term is
    O(1/n), so nothing cancels as n grows.
    """
    _check_sample_size(n, 3)
    if n == 3:
        return MiseReport(value=math.inf, method="closed_form")
    exponent = (
        0.5 * math.log1p((2.0 * n - 3.0) / ((n - 1.0) * (n - 3.0)))
        + _gamma_half_excess(0.5 * (n - 2))
        - _gamma_half_excess(n - 3)
    )
    value = math.expm1(exponent) / TWO_SQRT_PI / p.sigma
    return MiseReport(value=value, method="closed_form")


def shrink_factor(mise: float, r_f: float) -> float:
    """Optimal multiplicative shrinkage for an unbiased density estimator."""
    if mise < 0 or not r_f > 0:
        raise ValueError("mise must be nonnegative and r_f positive")
    if math.isinf(mise):
        return 0.0
    return r_f / (mise + r_f)


def shrunk_mise(mise: float, r_f: float) -> float:
    """MISE after optimal shrinkage; never exceeds the original."""
    if mise < 0 or not r_f > 0:
        raise ValueError("mise must be nonnegative and r_f positive")
    if math.isinf(mise):
        return r_f
    return mise * r_f / (r_f + mise)


def asymptotic_mise_general(
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
    density: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta: Sequence[float],
    support: tuple[float, float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Limit of n * MISE for a maximum-likelihood plug-in density estimator.

    Returns Tr(J^-1 L) with J the Fisher information and L the squared-
    density-weighted score outer product, both computed at theta by one
    array-valued quadrature over the finite `support`.  The callbacks take
    an array x of points: density(x, theta) returns the density at each,
    score(x, theta) one row of log-density derivatives per parameter, shape
    (len(theta), len(x)).
    """
    theta = np.asarray(theta, dtype=float)

    def j_and_l(x):
        u = score(x, theta)
        f = density(x, theta)
        return np.stack((f, f * f))[:, None, None] * (u[:, None] * u[None, :])

    j_mat, l_mat = integrate(j_and_l, *support, cfg)
    cond = np.linalg.cond(j_mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericsError(
            f"Fisher information matrix is singular or ill-conditioned (cond={cond:.3g})"
        )
    return float(np.trace(np.linalg.solve(j_mat, l_mat)))
