"""Two settings beyond density estimation where simple nonparametric
estimators beat parametric ones at small sample sizes.

Lognormal mean estimation: the sample mean competes with the closed-form
maximum-likelihood plug-in.  For every log-scale spread there is a largest
sample size up to which the sample mean has the smaller MSE; the plug-in
MSE does not even exist until the sample is large enough.

Skew-extended normal family: adding a shape parameter to the normal family
inflates the asymptotic MISE constant of the plug-in density estimator at
normal truths by a factor of about 1.386.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEFAULT_QUADRATURE,
    NumericsError,
    QuadratureConfig,
    _check_sample_size,
    std_normal_logcdf,
)
from .parametric import asymptotic_mise_general


@dataclass(frozen=True)
class LognormalParams:
    """Location and spread of the log of a lognormal variable."""

    log_mean: float
    log_sd: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_mean):
            raise ValueError(f"log_mean must be finite, got {self.log_mean!r}")
        if not 0 < self.log_sd < math.inf:
            raise ValueError(f"log_sd must be positive and finite, got {self.log_sd!r}")

    @property
    def mean(self) -> float:
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)


@dataclass(frozen=True)
class CrossoverResult:
    """Largest sample size at which the sample mean still wins."""

    log_sd: float
    n_crossover: int

    def __post_init__(self) -> None:
        if self.n_crossover < 1:
            raise ValueError("n_crossover must be at least 1")


def lognormal_mse_nonparametric(p: LognormalParams, n: int) -> float:
    """Exact MSE of the sample mean (it is unbiased, so this is its variance)."""
    _check_sample_size(n, 1)
    b2 = p.log_sd**2
    return math.exp(2.0 * p.log_mean + b2) * math.expm1(b2) / n


def lognormal_mse_parametric(p: LognormalParams, n: int) -> float:
    """Exact MSE of the maximum-likelihood plug-in estimator of the mean.

    Finite only when the squared log-spread is below (n-1)/2; below that
    sample size the estimator has no second moment and the MSE is infinite
    (returned as a value, not an error).

    With m = n - 1 and x = b^2/m the MSE is exp(2a + b^2/n) (A - B), where
    A = exp(b^2/n) (1 - 2x)^(-m/2) and B = (1 - x)^(-m).  For small spreads
    A and B nearly coincide, so the difference is formed as
    B expm1(log A - log B).  Since (1 - x)^2 / (1 - 2x) = 1 + x^2 / (1 - 2x),
    log A - log B = b^2/n + (m/2) log1p(x^2 / (1 - 2x)), free of cancellation.
    """
    _check_sample_size(n, 2)
    b2 = p.log_sd**2
    if b2 >= 0.5 * (n - 1):
        return math.inf
    m = n - 1.0
    x = b2 / m
    log_b = -m * math.log1p(-x)
    return math.exp(2.0 * p.log_mean + b2 / n + log_b) * math.expm1(
        b2 / n + 0.5 * m * math.log1p(x * x / (1.0 - 2.0 * x))
    )


def lognormal_variance_ratio_limit(log_sd: float) -> float:
    """Large-n limit of Var(sample mean) / Var(plug-in); always above one."""
    if not log_sd > 0:
        raise ValueError("log_sd must be positive")
    b2 = log_sd**2
    return (math.exp(b2) - 1.0) / (b2 + 0.5 * b2 * b2)


# the crossover scan's largest sample size, and how many sizes past a
# crossover the plug-in must stay ahead
_MAX_N = 10**6
_VERIFY_WINDOW = 200


def lognormal_crossover(log_sd: float) -> CrossoverResult:
    """Largest n at which the sample mean beats the parametric estimator.

    Scans upward from n = 2 using the exact MSE formulas (an infinite
    parametric MSE counts as a loss), then re-verifies that the parametric
    estimator stays ahead over the next `_VERIFY_WINDOW` sample sizes.
    """
    p = LognormalParams(0.0, log_sd)
    n = 2
    while n <= _MAX_N:
        if lognormal_mse_parametric(p, n) < lognormal_mse_nonparametric(p, n):
            n_crossover = n - 1
            for k in range(n + 1, n + 1 + _VERIFY_WINDOW):
                if not lognormal_mse_parametric(p, k) < lognormal_mse_nonparametric(p, k):
                    raise NumericsError(
                        f"crossover at n={n_crossover} is not clean: parametric "
                        f"loses again at n={k}"
                    )
            return CrossoverResult(log_sd=log_sd, n_crossover=n_crossover)
        n += 1
    raise NumericsError(f"no crossover found below n={_MAX_N} for log_sd={log_sd}")


def skew_normal_density(x, theta) -> float:
    """Density of the skew-extended normal family.

    theta = (location, scale, shape); shape 1 recovers the plain normal.
    Evaluated through logs so extreme arguments stay finite.
    """
    loc, scale, shape = theta
    if not scale > 0 or not shape > 0:
        raise ValueError("scale and shape must be positive")
    x = np.asarray(x, dtype=float)
    y = (x - loc) / scale
    # the skew factor Phi(y)^(shape - 1) is 1 at shape 1, the normal family
    skew = (shape - 1.0) * std_normal_logcdf(y) if shape != 1.0 else 0.0
    log_val = (
        math.log(shape)
        + skew
        - 0.5 * y * y
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(scale)
    )
    out = np.exp(log_val)
    return float(out) if out.ndim == 0 else out


def skew_normal_score(x, theta) -> np.ndarray:
    """Gradient of the log density in (location, scale, shape).

    The shape component is 1/shape + log cdf, which stays accurate far into
    the left tail through the log-cdf implementation.  At shape 1 the
    location and scale components reduce to the plain normal scores.
    """
    loc, scale, shape = theta
    if not scale > 0 or not shape > 0:
        raise ValueError("scale and shape must be positive")
    y = (np.asarray(x, dtype=float) - loc) / scale
    logcdf = std_normal_logcdf(y)
    # phi(y)/Phi(y), computed in logs to survive y << 0
    hazard = np.exp(-0.5 * y * y - 0.5 * math.log(2.0 * math.pi) - logcdf)
    u_loc = (y - (shape - 1.0) * hazard) / scale
    u_scale = (y * y - 1.0 - (shape - 1.0) * y * hazard) / scale
    u_shape = 1.0 / shape + logcdf
    return np.array([u_loc, u_scale, u_shape])


def skew_normal_asymptotic_mise(
    sigma: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Limit of n * MISE for the skew-extended family at a normal truth.

    Roughly 0.342/sigma: about 1.386 times the two-parameter normal value,
    the price of estimating the extra shape parameter.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    theta = (0.0, sigma, 1.0)
    span = 12.0 * sigma
    return asymptotic_mise_general(
        skew_normal_score, skew_normal_density, theta, (-span, span), cfg
    )
