"""Estimator values and formulas that the risk modules do not need, as test references.

The package computes risks in closed form or by quadrature and never
evaluates an estimator on a sample.  Tests do: the plug-in and unbiased
density values check unbiasedness by simulation and the unbiased
estimator's support, the shrinkage formulas check the shrunk MISE of the
unbiased estimator, and the lognormal variance ratio checks the large-n
limit of the exact MSE formulas.  The unbiased density is the residual
density of `bandwidth._ancillary_shape` rescaled, with the same constant
and edge, so its tests check that constant too.  `mise_exact_generic`, the
kernel MISE by quadrature through the difference-density identity, is the
independent cross-check of the closed forms; `kernel_self_convolution` is
its difference density of two kernel draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from normrisk import numerics
from normrisk.bandwidth import _ancillary_shape
from normrisk.kernels import Kernel, gk_epanechnikov, kernel_eval
from normrisk.numerics import _check_sample_size, std_normal_pdf
from normrisk.parametric import MiseReport, NormalParams


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


def kernel_self_convolution(kernel: Kernel, u):
    """Density of the difference of two independent kernel draws."""
    if kernel.name == "normal":
        return std_normal_pdf(np.asarray(u, dtype=float) / math.sqrt(2.0)) / math.sqrt(2.0)
    return gk_epanechnikov(u)


def mise_exact_generic(kernel: Kernel, p: NormalParams, n: int, h: float) -> MiseReport:
    """Exact kernel MISE through the general difference-density identity.

    Independent of the closed forms: the pair and overlap integrals against
    the density g of an observation pair difference are one array-valued
    adaptive quadrature (through `numerics.integrate`, so that tests which
    count its calls see this one).
    """
    _check_sample_size(n, 1)
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    sd_diff = p.sigma * math.sqrt(2.0)

    def g_diff(y):
        return std_normal_pdf(np.asarray(y) / sd_diff) / sd_diff

    if kernel.name == "normal":
        # both kernel factors alone decay, the slower at scale sqrt(2), and
        # g(h u) at scale sd_diff/h: 18 of the narrower scale reaches e^-81.
        # A fixed span would miss g(h u) once it is much narrower than the
        # first panels (1e-2 off at h = 200)
        span = 18.0 * min(1.0, sd_diff / h)
        lo, hi, points = -span, span, ()
    else:
        lo, hi, points = -1.0, 1.0, (-0.5, 0.0, 0.5)
    pair, overlap = numerics.integrate(
        lambda u: np.stack((kernel_self_convolution(kernel, u), kernel_eval(kernel, u))) * g_diff(h * u),
        lo,
        hi,
        points=points,
    ).tolist()
    value = (
        kernel.roughness / (n * h)
        + (1.0 - 1.0 / n) * pair
        - 2.0 * overlap
        + float(g_diff(0.0))
    )
    return MiseReport(value=value, method="quadrature")
