"""Two settings beyond density estimation where simple nonparametric
estimators beat parametric ones at small sample sizes.

Lognormal mean estimation: the sample mean competes with the closed-form
maximum-likelihood plug-in.  For every log-scale spread there is a largest
sample size up to which the sample mean has the smaller MSE; the plug-in
MSE does not even exist until the sample is large enough.

Skew-extended normal family, density shape Phi(y)^(shape-1) phi(y)/scale
at y = (x - location)/scale: the shape parameter inflates the plug-in's
asymptotic MISE constant at normal truths by about 1.386, a trace
tr(J^-1 L) computed from the family's score at the standard normal alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import NumericsError, _check_sample_size, integrate, std_normal_pdf
from .parametric import NormalParams

#: the log of the largest double, rounded down
_LOG_MAX = 709.78


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
        """exp(log_mean + log_sd^2/2); NumericsError where it overflows a double."""
        exponent = self.log_mean + 0.5 * self.log_sd * self.log_sd
        if not exponent < _LOG_MAX:
            raise NumericsError(f"the mean overflows a double at {self!r}")
        return math.exp(exponent)


@dataclass(frozen=True)
class CrossoverResult:
    """Largest sample size at which the sample mean still wins."""

    log_sd: float
    n_crossover: int

    def __post_init__(self) -> None:
        if self.n_crossover < 1:
            raise ValueError("n_crossover must be at least 1")


def _log_expm1_ratio(y: float) -> float:
    # log((1 - e^-y)/y) for y >= 0, about -y/2; below y = 1e-3 its series, as
    # the log of a quotient that near 1 would be off by an ulp of 1
    if y < 1e-3:
        return y * (y / 24.0 - 0.5) - y**4 / 2880.0
    return math.log(-math.expm1(-y) / y) if y < math.inf else -math.inf


def _nonparametric_exponent(b2: float) -> float:
    # Each MSE at log mean 0 is written exp(e) (b^2/n) (1 + rho).  Every term
    # of e and rho is O(b^2) or smaller for small spreads, and finite for
    # large ones, so two MSEs compare through e and log1p(rho) to a few ulps
    # of b^2.  The sample mean's, exp(b^2) expm1(b^2) / n, has rho = 0, by
    # expm1(y) = exp(y) y (1 - e^-y)/y
    return 2.0 * b2 + _log_expm1_ratio(b2)


def _parametric_parts(b2: float, n: int) -> tuple[float, float]:
    # exp(b^2/n) B expm1(log A - log B) of `lognormal_mse_parametric`, with
    # log A - log B = b^2/n (1 + rho)
    if b2 >= 0.5 * (n - 1):
        return math.inf, 0.0
    m = n - 1.0
    x = b2 / m
    delta = 0.5 * m * math.log1p(x * x / (1.0 - 2.0 * x))
    gap = b2 / n + delta
    rho = n * delta / b2 if delta else 0.0  # b^2 may underflow to 0, and delta with it
    return b2 / n - m * math.log1p(-x) + gap + _log_expm1_ratio(gap), rho


def _mse(p: LognormalParams, n: int, exponent: float, rho: float = 0.0) -> float:
    # an exponent of inf, or NaN (inf - inf at b^2 = inf), overflows too
    log_mse = 2.0 * p.log_mean + exponent + 2.0 * math.log(p.log_sd) - math.log(n) + math.log1p(rho)
    if not log_mse < _LOG_MAX:
        raise NumericsError(f"the MSE overflows a double at {p!r}, n={n}")
    return math.exp(log_mse)


def lognormal_mse_nonparametric(p: LognormalParams, n: int) -> float:
    """Exact MSE of the sample mean (it is unbiased, so this is its variance);
    NumericsError where it overflows a double."""
    _check_sample_size(n, 1)
    return _mse(p, n, _nonparametric_exponent(p.log_sd * p.log_sd))


def lognormal_mse_parametric(p: LognormalParams, n: int) -> float:
    """Exact MSE of the maximum-likelihood plug-in estimator of the mean.

    Finite only when the squared log-spread is below (n-1)/2; below that
    sample size the estimator has no second moment and the MSE is infinite
    (returned as a value, not an error).  NumericsError where a finite MSE
    overflows a double.

    With m = n - 1 and x = b^2/m the MSE is exp(2a + b^2/n) (A - B), where
    A = exp(b^2/n) (1 - 2x)^(-m/2) and B = (1 - x)^(-m).  For small spreads
    A and B nearly coincide, so the difference is formed as
    B expm1(log A - log B).  Since (1 - x)^2 / (1 - 2x) = 1 + x^2 / (1 - 2x),
    log A - log B = b^2/n + (m/2) log1p(x^2 / (1 - 2x)), free of cancellation.
    """
    _check_sample_size(n, 2)
    exponent, rho = _parametric_parts(p.log_sd * p.log_sd, n)  # b b, as b**2 raises past 1e154
    return math.inf if exponent == math.inf else _mse(p, n, exponent, rho)


# the crossover scan's largest sample size, and how many sizes past a
# crossover the plug-in must stay ahead
_MAX_N = 10**6
_VERIFY_WINDOW = 200


def lognormal_crossover(log_sd: float) -> CrossoverResult:
    """Largest n at which the sample mean beats the parametric estimator.

    Scans upward comparing the logarithms of the exact MSEs, in which the
    log mean cancels and nothing overflows, then re-verifies that the
    parametric estimator stays ahead over the next `_VERIFY_WINDOW` sample
    sizes.  The parametric MSE is infinite, a loss, up to n = 2 b^2 + 1, so
    the scan starts at max(2, floor(2 b^2)).  The crossover stays exact
    where the MSEs differ by less than an ulp of either.
    """
    p = LognormalParams(0.0, log_sd)  # log_sd checked
    b2 = p.log_sd * p.log_sd  # inf past b = 1e154, where `**` would raise
    nonparametric = _nonparametric_exponent(b2)

    def parametric_wins(n: int) -> bool:
        exponent, rho = _parametric_parts(b2, n)
        return exponent - nonparametric + math.log1p(rho) < 0.0

    n = max(2, math.floor(min(2.0 * b2, _MAX_N + 1.0)))
    while n <= _MAX_N:
        if parametric_wins(n):
            n_crossover = n - 1
            for k in range(n + 1, n + 1 + _VERIFY_WINDOW):
                if not parametric_wins(k):
                    raise NumericsError(
                        f"crossover at n={n_crossover} is not clean: parametric "
                        f"loses again at n={k}"
                    )
            return CrossoverResult(log_sd=log_sd, n_crossover=n_crossover)
        n += 1
    raise NumericsError(f"no crossover found below n={_MAX_N} for log_sd={log_sd}")


def _normal_point_score(y: np.ndarray) -> np.ndarray:
    """Score of the family in (location, scale, shape) at the standard
    normal: the rows y, y^2 - 1 and 1 + log Phi(y)."""
    # Phi(y) >= 1.8e-33 on the quadrature's [-12, 12], so its log needs no
    # tail formula; rounding y/sqrt(2) costs at most 1.6e-14 there
    log_cdf = [math.log(0.5 * math.erfc(-v / math.sqrt(2.0))) for v in y.tolist()]
    return np.stack((y, y * y - 1.0, 1.0 + np.array(log_cdf)))


def _skew_normal_information() -> np.ndarray:
    """J = int phi u u^T and L = int phi^2 u u^T for the score u at the
    standard normal, stacked as shape (2, 3, 3): one quadrature over
    [-12, 12].  Their top-left 2x2 blocks are the normal family's."""

    def j_and_l(y):
        f = std_normal_pdf(y)
        u = _normal_point_score(y)
        return np.stack((f, f * f))[:, None, None] * (u[:, None] * u[None, :])

    return integrate(j_and_l, -12.0, 12.0)


@lru_cache(maxsize=None)
def _skew_normal_unit_mise() -> float:
    j_mat, l_mat = _skew_normal_information()
    return float(np.trace(np.linalg.solve(j_mat, l_mat)))


def skew_normal_asymptotic_mise(sigma: float) -> float:
    """Limit of n * MISE for the skew-extended family at a normal truth.

    Roughly 0.342/sigma: about 1.386 times the two-parameter normal value,
    the price of estimating the extra shape parameter.  By the exact scale
    identity it is the value at sigma = 1 divided by sigma: tr(J^-1 L) of
    `_skew_normal_information`, one quadrature computed once.  Computed at
    sigma itself, the Fisher information's 1/sigma^2 entries would fall
    below the quadrature's absolute target for small sigma.
    """
    return NormalParams(0.0, sigma).rescale(_skew_normal_unit_mise(), 1)
