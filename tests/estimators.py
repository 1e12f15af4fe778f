"""Estimator values and formulas that the risk modules do not need, as test references.

The package computes risks in closed form or by quadrature and never
evaluates an estimator on a sample.  Tests do: the plug-in and unbiased
density values check unbiasedness by simulation and the unbiased
estimator's support, the shrinkage formulas check the shrunk MISE of the
unbiased estimator, and the lognormal variance ratio checks the large-n
limit of the exact MSE formulas.  The unbiased density is the residual
density of `bandwidth._ancillary_shape` rescaled, with the same constant
and edge, so its tests check that constant too.
"""

import math
from dataclasses import dataclass

import numpy as np

from normrisk.bandwidth import _ancillary_shape
from normrisk.numerics import _check_sample_size, std_normal_pdf


@dataclass(frozen=True)
class PluginEstimate:
    """Estimated location and scale plugged into the normal density."""

    mu_hat: float
    sigma_hat: float

    def __post_init__(self) -> None:
        if not self.sigma_hat > 0:
            raise ValueError(f"sigma_hat must be positive, got {self.sigma_hat!r}")


def plugin_density(x, est: PluginEstimate):
    """Normal density with estimated parameters, evaluated at x."""
    return std_normal_pdf((np.asarray(x, dtype=float) - est.mu_hat) / est.sigma_hat) / est.sigma_hat


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
    const, edge, _ = _ancillary_shape(n)
    const /= est.sigma_hat
    t = np.maximum(1.0 - n * r * r / (n - 1) ** 2, 0.0)
    out = np.where(np.abs(r) <= edge, const * np.power(t, 0.5 * n - 2.0), 0.0)
    return float(out) if out.ndim == 0 else out


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


def lognormal_variance_ratio_limit(log_sd: float) -> float:
    """Large-n limit of Var(sample mean) / Var(plug-in); always above one."""
    if not log_sd > 0:
        raise ValueError("log_sd must be positive")
    b2 = log_sd**2
    return (math.exp(b2) - 1.0) / (b2 + 0.5 * b2 * b2)
