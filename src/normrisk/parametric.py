"""Risk of normality-based parametric density estimators.

Covers the plug-in estimator (estimated mean and standard deviation
substituted into the normal density) and the minimum-variance unbiased
density estimator.

Every risk here reduces to the standard normal estimand: a general
(mu, sigma) target only rescales the answer, so the quadrature work is
done once in standardized coordinates.  The plug-in's pointwise mean and
second moment are expectations over the scaled-chi law of the scale
estimate, computed together as one array-valued integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .numerics import (
    _check_sample_size,
    _gamma_half_excess,
    scaled_chi_column,
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
    """Location and scale of the normal density being estimated.  Every risk
    at (mu, sigma) is the standard one at y = (x - mu)/sigma and bandwidth
    h/sigma, divided by a power of sigma: `standardize` and `rescale`."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    def standardize(self, x):
        """(x - mu)/sigma, elementwise, and a float for a scalar x.  It stops
        at +-1e150, where every density is 0 and no square overflows."""
        y = np.clip(np.asarray(x, dtype=float) - self.mu, -1e150 * self.sigma, 1e150 * self.sigma)
        return float(y / self.sigma) if y.ndim == 0 else y / self.sigma

    def standard_bandwidth(self, h: float) -> float:
        """h/sigma, unchecked: the kernel's own checks name a bandwidth out of range."""
        return h / self.sigma

    def rescale(self, value, power: int, *, pointwise: bool = False):
        """value / sigma^power, elementwise, for a risk (power 1 or 2) or a
        bandwidth (power -1).  ValueError where a finite value overflows, and
        where a normal double falls below the normal range unless the value is
        `pointwise`: a pointwise risk's far tail goes to its correct limit, 0."""
        with np.errstate(over="ignore", under="ignore"):
            scaled = value * self.sigma if power < 0 else value / self.sigma
            scaled = scaled / self.sigma if power == 2 else scaled
        lost = np.isfinite(value) & np.isinf(scaled)
        if not pointwise:
            lost |= (np.abs(value) >= sys.float_info.min) & (np.abs(scaled) < sys.float_info.min)
        if lost.any():
            size, what = "small" if self.sigma < 1.0 else "large", "risk" if power > 0 else "bandwidth"
            flow = "overflows" if (self.sigma < 1.0) == (power > 0) else "underflows"
            raise ValueError(f"sigma={self.sigma!r} is too {size}: the {what} {flow} a double")
        return scaled


STD_NORMAL = NormalParams(0.0, 1.0)


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


class PointRisk(NamedTuple):
    """Pointwise bias, standard deviation and root MSE of an estimator:
    floats, or arrays of the shape of x.  Each scales as 1/sigma."""

    bias: float
    sd: float
    rmse: float


def _point_risk(p: NormalParams, bias, variance, sd=None) -> PointRisk:
    """The PointRisk at the scale of p, from the standard-scale bias and variance,
    and sd where the caller forms it without the variance's underflow.
    rmse is hypot(bias, sd) where bias^2 + variance underflows, its root elsewhere."""
    if sd is None:
        sd = np.sqrt(np.maximum(variance, 0.0))
    square = bias * bias + variance
    rmse = np.where(square < sys.float_info.min, np.hypot(bias, sd), np.sqrt(square))
    fields = p.rescale(np.stack((bias, sd, rmse)), 1, pointwise=True)
    return PointRisk(*(fields.tolist() if fields.ndim == 1 else fields))


def asymptotic_mse_plugin(x: float, p: NormalParams, n: int) -> float:
    """Leading-order pointwise MSE of the plug-in estimator.

    The two parts of the formula reflect the noise in the estimated mean
    and in the estimated standard deviation.
    """
    _check_sample_size(n, 2)
    y = p.standardize(x)
    phi = std_normal_pdf(y)
    # phi y and phi (y^2 - 1) are 0 far out, where y^4 would overflow
    return p.rescale(((phi * y) ** 2 + 0.5 * (phi * (y * y - 1.0)) ** 2) / n, 2, pointwise=True)


def asymptotic_mise_plugin(p: NormalParams, n: int) -> float:
    """Leading-order MISE of the plug-in estimator."""
    _check_sample_size(n, 2)
    return p.rescale(PLUGIN_AMISE_CONSTANT / n, 1)


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
    with np.errstate(over="ignore"):  # x x n overflows past n = 1.8e8 at the x clip; exp(-inf) = 0
        mean = math.sqrt(n) / (SQRT_2PI * np.sqrt(1.0 + nz2)) * np.exp(-0.5 * x * x * n / (1.0 + nz2))
        second = math.sqrt(n) / (2.0 * math.pi * z * np.sqrt(2.0 + nz2)) * np.exp(-x * x * n / (2.0 + nz2))
    if mean.ndim == 0:
        return float(mean), float(second)
    return mean, second


def exact_mse_plugin(x, p: NormalParams, n: int) -> PointRisk:
    """Exact pointwise bias, sd and root MSE of the plug-in estimator.

    Integrates both conditional moments against the scaled-chi law of the
    scale estimate, together as one array-valued integral.  x may be a
    float or an array: an array gives arrays of x's shape, every point and
    both moments to the package tolerance of 1e-10.  Requires n >= 3: below
    that the second moment is not integrable.
    """
    _check_sample_size(n, 3)
    y = np.asarray(p.standardize(x))
    y_nodes = y[..., None]  # the quadrature nodes z on a last axis of their own

    mean0, second0 = scaled_chi_expectation(
        lambda z: np.stack(conditional_moments(y_nodes, n, z)), n
    )
    return _point_risk(p, mean0 - std_normal_pdf(y), second0 - mean0 * mean0)


def _mise_integrand(n, z, d):
    # n times the expectation of this is n (1 + E(1/Z) - 2 E(1/r)), where
    # r = sqrt(1 + q) and q = (Z^2 - 1)/2 + 1/(2n) = d (1 + d/2) + 1/(2n), so
    # that 1/r = sqrt(2n / (1 + n (1 + Z^2))).  The O(1) and O(d) parts cancel
    # by hand: 1/Z - 1 + q = d^2 (1/Z + 1/2) + 1/(2n) and
    # 2 (1 - 1/r) - q = -q^2 (r + 2) / (r (r + 1)^2), so every term left is
    # O(d^2) or O(1/n); `scaled_chi_column` forms d = Z - 1 without rounding Z
    q = d * (1.0 + 0.5 * d) + 0.5 / n
    r = np.sqrt(1.0 + q)
    return d * d * (1.0 / z + 0.5) + 0.5 / n - q * q * (r + 2.0) / (r * (r + 1.0) ** 2)


def plugin_mise_coefficients(ns: Sequence[int]) -> list[float]:
    """The stabilized MISE sequence, n * 2*sqrt(pi) * sigma * MISE, at every
    n of ns, in order.

    Decreases slowly and monotonically to 7/8 as n grows.  It is n E f(Z)
    over the scaled-chi law of Z = sigma_hat/sigma, with every term of f
    O((Z-1)^2) or O(1/n), so nothing cancels as n grows.  The distinct n,
    in order of first appearance, are integrated together as one
    scaled-chi column (`scaled_chi_column`).  Within 3e-15 relative of the
    40-digit oracle at n = 10^4, 10^5 and 10^6.
    """
    distinct = list(dict.fromkeys(ns))
    values = dict(zip(distinct, scaled_chi_column(_mise_integrand, distinct).tolist()))
    return [int(n) * values[n] for n in ns]


def plugin_mise_column(p: NormalParams, ns: Sequence[int]) -> list[float]:
    """Exact plug-in MISE at every n of ns, in order, from one column of coefficients."""
    return [p.rescale(c / (n * TWO_SQRT_PI), 1) for n, c in zip(ns, plugin_mise_coefficients(ns))]


def exact_mise_plugin(p: NormalParams, n: int) -> MiseReport:
    """Exact MISE of the plug-in estimator, by quadrature: a column of one."""
    return MiseReport(value=plugin_mise_column(p, (n,))[0], method="quadrature")


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
    return MiseReport(value=p.rescale(math.expm1(exponent) / TWO_SQRT_PI, 1), method="closed_form")

