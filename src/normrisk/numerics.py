"""Self-contained numerical kernel used by the risk modules.

Provides adaptive Gauss-Kronrod quadrature over finite intervals, the
one fixed 32-point Gauss-Legendre rule (`_legendre_rule`) that the
kernel and bandwidth modules share, standard-normal special
functions, the gamma-function ratio and the Kummer function the risk
formulas need, the sampling density of the scaled sample standard
deviation and every expectation over it (one adaptive integral each,
`scaled_chi_expectation`).

The quadrature takes array-valued integrands only: f maps a 1-D array of
nodes to an array whose last axis runs over those nodes, and any leading
axes are components integrated together over one panel tree.  A function
that accepts only a float is rejected with TypeError.

Everything is built on `math` and numpy alone; scipy is not needed at run
time.  The normal cdf, its log and exp(-x) I0(x) match 40-digit mpmath to
within 6e-16 relative over their whole double range, closer than scipy's
`ndtr` (2.4e-13 at x = -37) and `log_ndtr` (1.3e-14); plain floats take a
scalar `math` path, arrays are mapped through it entry by entry.

All routines are pure functions of their arguments and safe to call from
any number of concurrent workers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not reach the requested tolerance."""


class MinimizationError(NumericsError):
    """Scalar minimization failed (bad bracket or edge minimum)."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Error targets for adaptive quadrature.

    The integral estimate I is accepted once the accumulated error bound
    drops below ``max(abs_tol, rel_tol * |I|)``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 512

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")
        if not 0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be nonnegative and finite, got {self.rel_tol!r}")
        m = self.max_subdivisions
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"max_subdivisions must be an integer of at least 1, got {m!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


# 15-point Kronrod extension of 7-point Gauss-Legendre, nodes/weights for
# [-1, 1].  The embedded Gauss rule sits on nodes 1, 3, ..., 13.
_K15_NODES_POS = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_K15_WEIGHTS_POS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_G7_WEIGHTS_POS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_K15_NODES = np.concatenate((-_K15_NODES_POS[:-1], _K15_NODES_POS[::-1]))
_K15_WEIGHTS = np.concatenate((_K15_WEIGHTS_POS[:-1], _K15_WEIGHTS_POS[::-1]))
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate((_G7_WEIGHTS_POS[:-1], _G7_WEIGHTS_POS[::-1]))
# one product with these columns gives the Kronrod sum, its gap to the Gauss
# sum and the panel mean
_GK_WEIGHTS = np.stack((_K15_WEIGHTS, _K15_WEIGHTS - _G7_WEIGHTS, 0.5 * _K15_WEIGHTS), axis=1)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _gk15(f: Callable[[np.ndarray], np.ndarray], cuts) -> tuple[np.ndarray, list[float]]:
    """Gauss-Kronrod panels between consecutive cuts, in one integrand call.

    Returns the panel integrals, panel axis last after the integrand's own
    leading shape, and each panel's error bound as a float: the largest
    bound among the integrand's components.
    """
    mid_half = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(cuts[:-1], cuts[1:])])
    half = mid_half[:, 1]
    x = (mid_half[:, :1] + mid_half[:, 1:] * _K15_NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape[-1:] != x.shape:
        raise TypeError(
            f"integrand returned shape {y.shape} for {x.size} nodes; "
            "it must map a 1-D node array to values with the node axis last"
        )
    y = y.reshape(y.shape[:-1] + (half.size, 15))
    # per unit half-width: the Kronrod sum, its gap to the Gauss sum, the
    # panel mean, and the Kronrod sums of |y| and of |y - mean|
    sums = y @ _GK_WEIGHTS
    kronrod = sums[..., 0]
    resabs = np.abs(y) @ _K15_WEIGHTS
    resasc = np.abs(y - sums[..., 2:]) @ _K15_WEIGHTS
    # + _TINY keeps a constant panel (resasc = 0) finite: its bound is then
    # the roundoff floor alone
    ratio = 200.0 * np.abs(sums[..., 1]) / (resasc + _TINY)
    err = np.maximum(resasc * np.minimum(1.0, ratio) ** 1.5, 50.0 * _EPS * resabs)
    if err.ndim > 1:
        err = err.reshape(-1, half.size).max(axis=0, initial=0.0)
    return half * kronrod, (half * err).tolist()


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    points: Sequence[float] = (),
) -> float | np.ndarray:
    """Adaptively integrate f over (lo, hi).

    Both limits must be finite.  f maps a 1-D array of nodes to values of
    any leading shape with the node axis last, shape (..., nodes); the result
    has that leading shape, and a float when there is none.  All components
    share one panel tree, and a panel's error bound is the largest among
    them.  `points` lists interior locations of known structure (kinks,
    support edges) and seeds the initial subdivision.  Panels only sample
    interior nodes, so a feature much narrower than the surrounding panel
    must be bracketed by a pair of points, not merely marked at its center.

    Raises QuadratureError when the summed error bound cannot be brought
    below max(abs_tol, rel_tol * min_j |I_j|) within cfg.max_subdivisions,
    so that every component I_j meets its own target; TypeError when f does
    not return the node axis last (a scalar-only f, for one); ValueError
    unless lo < hi, both finite.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"invalid interval: need finite lo={lo!r} < hi={hi!r}")

    cuts = sorted({lo, hi, *(p for p in points if lo < p < hi)})
    vals, errs = _gk15(f, cuts)
    total = 0.0
    err_total = 0.0
    heap: list[tuple[float, float, float, np.ndarray, float]] = []
    for i, (a, b, err) in enumerate(zip(cuts[:-1], cuts[1:], errs)):
        total += vals[..., i]
        err_total += err
        heapq.heappush(heap, (-err, a, b, vals[..., i], err))

    splits = 0
    while err_total > max(cfg.abs_tol, cfg.rel_tol * min(abs(total).flat, default=math.inf)):
        if splits >= cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {splits} subdivisions: "
                f"estimate {np.array2string(np.asarray(total), precision=6)}, "
                f"error bound {err_total:.3g}"
            )
        _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        vals, (e1, e2) = _gk15(f, (a, mid, b))
        v1, v2 = vals[..., 0], vals[..., 1]
        total += v1 + v2 - val
        err_total += e1 + e2 - err
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        splits += 1
    return float(total) if np.ndim(total) == 0 else total


@lru_cache(maxsize=None)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    # the 32-point Gauss-Legendre rule on [-1, 1], shared by every fixed
    # rule of the risk modules: the parabolic kernel's pointwise moments and
    # MISE slope, and the kernel sum of the nested real MISE
    return leggauss(32)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_out(x: np.ndarray, out: np.ndarray | None) -> None:
    """Reject an `out` array that an elementwise formula in x cannot write to."""
    if out is None:
        return
    if out.shape != x.shape:
        raise ValueError(f"out has shape {out.shape}, the input {x.shape}")
    if np.may_share_memory(out, x):
        raise ValueError("out must not overlap the input")


def std_normal_pdf(x, out: np.ndarray | None = None):
    """Standard normal density, elementwise on arrays.

    With `out`, an array of x's shape that does not overlap x, the density
    is written there in place and `out` is returned.  The arithmetic is the
    same either way, so the two results agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    _check_out(x, out)
    pdf = np.multiply(x, -0.5, out=out)
    pdf = np.multiply(pdf, x, out=out)
    pdf = np.subtract(pdf, _LOG_SQRT_2PI, out=out)
    pdf = np.exp(pdf, out=out)
    return float(pdf) if out is None and np.ndim(pdf) == 0 else pdf


def _elementwise(f: Callable[[float], float], x):
    """f on a float, or f mapped over every entry of an array (0-d gives a float)."""
    if type(x) is float:
        return f(x)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return f(float(x))
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


# 1/sqrt(2) as a double plus the residual of that rounding, and the double's
# Dekker split into two 26-bit halves
_SQRT_HALF = 0.7071067811865476
_SQRT_HALF_LO = -4.833646656726457e-17
_DEKKER = 134217729.0  # 2**27 + 1
_SQRT_HALF_HI_PART = _DEKKER * _SQRT_HALF - (_DEKKER * _SQRT_HALF - _SQRT_HALF)
_SQRT_HALF_LO_PART = _SQRT_HALF - _SQRT_HALF_HI_PART
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _ndtr(x: float) -> float:
    # Phi(x) = erfc(-t)/2 with t = x/sqrt(2).  Rounding t costs up to x^2 ulp
    # in the left tail, so its residual t_lo (a Dekker two-product plus the
    # low part of 1/sqrt(2)) is added to first order, times dPhi/dt =
    # exp(-t^2)/sqrt(pi)
    if not -40.0 < x < 40.0:  # Phi is 0 or 1 here, to double precision; or x is NaN
        return 0.5 * math.erfc(-x * _SQRT_HALF)
    t = x * _SQRT_HALF
    c = _DEKKER * x
    hi = c - (c - x)
    lo = x - hi
    t_lo = (
        ((hi * _SQRT_HALF_HI_PART - t) + hi * _SQRT_HALF_LO_PART + lo * _SQRT_HALF_HI_PART)
        + lo * _SQRT_HALF_LO_PART
        + x * _SQRT_HALF_LO
    )
    return 0.5 * math.erfc(-t) + t_lo * math.exp(-t * t) * _INV_SQRT_PI


#: below this the log cdf is summed from its asymptotic series
_LOG_NDTR_TAIL = -20.0


def _log_ndtr(x: float) -> float:
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x >= _LOG_NDTR_TAIL:
        return math.log(_ndtr(x))
    # Phi(x) = phi(x)/(-x) (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...); twelve terms
    # reach 1e-19 at x = -20, and every omitted term is smaller further out
    r = 1.0 / (x * x)
    series = 0.0
    for odd in range(23, 0, -2):
        series = -odd * r * (1.0 + series)
    return -0.5 * x * x - _LOG_SQRT_2PI - math.log(-x) + math.log1p(series)


def std_normal_cdf(x):
    """Standard normal distribution function, elementwise on arrays.

    Within 4e-16 relative of 40-digit mpmath on [-37.5, 9], the whole range
    where Phi is a normal double.
    """
    return _elementwise(_ndtr, x)


def std_normal_logcdf(x):
    """log of the standard normal cdf, accurate far into the left tail.

    log1p(-Phi(-x)) for x > 0, log Phi(x) down to x = -20, the asymptotic
    series below; within 5e-16 relative of 40-digit mpmath down to x = -1e5.
    """
    return _elementwise(_log_ndtr, x)


def normal_mass(a, b):
    """Standard normal probability of the interval (a, b), elementwise.

    Where a + b > 0 it is Phi(-a) - Phi(-b): two small upper tails, each
    to full relative precision, where Phi(b) - Phi(a) would subtract two
    values near 1 (7% off at (8, 9)).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    flip = a + b > 0
    return std_normal_cdf(np.where(flip, -a, b)) - std_normal_cdf(np.where(flip, -b, a))


# B_2k / (2k (2k - 1)), k = 1..7: the Stirling series of log Gamma in 1/x
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _lgamma_correction(x: float) -> float:
    """log Gamma(x) minus Stirling's (x - 1/2) log x - x + log sqrt(2 pi).

    From x = 10 on this is the asymptotic series, whose first omitted term
    is below 1e-16 there; below 10 every term of the difference is small,
    so it is formed directly.
    """
    if x < 10.0:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI)
    r = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * r + c
    return series / x


def _gamma_half_excess(x: float) -> float:
    """log(Gamma(x + 1/2) / Gamma(x)) - log(x) / 2 for x > 0, about -1/(8x).

    From x = 10 on it is x log1p(t) - 1/2 + c(x + 1/2) - c(x), with t = 1/(2x)
    and c the Stirling series, so no two large log-gamma values are
    subtracted; x log1p(t) - 1/2 is summed as its series
    -t/4 + t^2/6 - t^3/8 + ..., whose first omitted term is below 1e-19 of
    it, since the direct difference would leave an absolute error of 1e-16.
    Below x = 10 the recurrence e(x) = e(x + 1) + log1p(1/x)/2 - log1p(1/(2x))
    first steps up to where the series hold.
    """
    x = float(x)  # a numpy integer would overflow in the series' x * x
    shift = 0.0
    while x < 10.0:
        shift += 0.5 * math.log1p(1.0 / x) - math.log1p(0.5 / x)
        x += 1.0
    t = 0.5 / x
    series = 0.0
    for k in range(14, 0, -1):
        series = -t * (0.5 / (k + 1) + series)
    return shift + series + _lgamma_correction(x + 0.5) - _lgamma_correction(x)


def gamma_half_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x) for x > 0, to within 1e-15 relative.

    Formed as sqrt(x) exp(e(x)) with e from `_gamma_half_excess`: the
    difference of two large log-gamma values would lose about log10(x)
    digits (1.5e-10 relative at x = 5e5).
    """
    if not x > 0:
        raise ValueError(f"gamma_half_ratio requires x > 0, got {x!r}")
    return math.sqrt(x) * math.exp(_gamma_half_excess(x))


#: above this exp(-x) I0(x) is summed from its large-x series
_I0E_SERIES_FROM = 700.0


@lru_cache(maxsize=None)
def _i0e_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    # the trapezoid rule on [0, pi]: -2 sin^2(t/2) = cos t - 1 at its nodes, and its weights
    t = np.linspace(0.0, math.pi, panels + 1)
    w = np.full(panels + 1, 1.0 / panels)
    w[[0, -1]] *= 0.5
    return -2.0 * np.sin(0.5 * t) ** 2, w


def _i0e(x: np.ndarray) -> np.ndarray:
    """exp(-x) I0(x) for x >= 0, elementwise; within 6e-16 relative of mpmath.

    Up to x = 700 it is (1/pi) int_0^pi exp(x (cos t - 1)) dt by the
    trapezoid rule, exact but for 2 I_2N(x) / I0(x), about 2 exp(-2 N^2 / x),
    on N panels: 8 + sqrt(23 x) of them leave e^-46.  Above 700 it is the
    large-x series (2 pi x)^(-1/2) sum_k ((2k - 1)!!)^2 / (k! (8x)^k), of
    which eight terms reach 1e-19.
    """
    out = np.empty_like(x)
    small = x <= _I0E_SERIES_FROM
    y = x[small]
    exponent, w = _i0e_rule(8 + math.ceil(math.sqrt(23.0 * y.max(initial=0.0))))
    out[small] = np.exp(y[:, None] * exponent) @ w
    big = x[~small]  # NaN lands here too and stays NaN
    if big.size:
        series = np.zeros_like(big)
        for k in range(8, 0, -1):
            series = (2 * k - 1) ** 2 / (8.0 * k * big) * (1.0 + series)
        out[~small] = (1.0 + series) / np.sqrt(2.0 * math.pi * big)
    return out


#: positive nodes of the Gauss-Hermite rule behind kummer_m_half
_KUMMER_NODES = 80


@lru_cache(maxsize=None)
def _kummer_rule() -> tuple[np.ndarray, np.ndarray]:
    # squared positive nodes and doubled weights of the 160-point
    # Gauss-Hermite rule: the Gauss-Laguerre rule for weight v^(-1/2) e^(-v)
    u, w = hermgauss(2 * _KUMMER_NODES)
    return u[_KUMMER_NODES:] ** 2, 2.0 * w[_KUMMER_NODES:]


def kummer_m_half(b: float, x):
    """Kummer's function M(1/2, b, -x) for b >= 1 and x >= 0, elementwise in x.

    It is E exp(-x B) for B ~ Beta(1/2, b - 1/2).  Under t = 1 - e^(-v) the
    beta integral becomes a Gauss-Laguerre integral with weight
    v^(-1/2) e^(-lam v), lam = b - 1/2 + x, and a smooth factor
    g(v) = sqrt(v / (1 - e^(-v))) exp(x (v - 1 + e^(-v))), so that

        M = Gamma(b) / (Gamma(b - 1/2) sqrt(pi)) lam^(-1/2) sum_i w_i g(u_i^2 / lam)

    over the positive nodes u_i of an 80-point half Gauss-Hermite rule
    (weights doubled).  Against 30-digit mpmath the relative error is below
    1e-14 for b = 3/2, 2, 5/2, ... at every x tried (up to 1e7).  At b = 1
    the rule would miss the slowly decaying e^(-v/2) tail, so the closed
    form e^(-x/2) I0(x/2) is used instead.
    """
    if not b >= 1.0:
        raise ValueError(f"kummer_m_half requires b >= 1, got {b!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("kummer_m_half requires x >= 0")
    if b == 1.0:
        out = _i0e(0.5 * x)
    else:
        u2, w = _kummer_rule()
        lam = b - 0.5 + x
        v = u2 / lam[..., None]
        one_minus_t = -np.expm1(-v)
        g = np.sqrt(v / one_minus_t) * np.exp(x[..., None] * (v - one_minus_t))
        out = gamma_half_ratio(b - 0.5) / math.sqrt(math.pi) * (g @ w) / np.sqrt(lam)
    return float(out) if out.ndim == 0 else out


def _check_sample_size(n, minimum: int) -> None:
    """Raise ValueError unless n is an integer of at least `minimum`."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample size n must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"sample size n must be at least {minimum}, got {n}")


@lru_cache(maxsize=None)
def _scaled_chi_centered_log_const(n: int) -> float:
    # log normalizing constant minus (n-1)/2: with the Stirling form of
    # log Gamma((n-1)/2) the O(n) parts cancel analytically
    y = 0.5 * (n - 1)
    return 0.5 * math.log(2.0 * y / math.pi) - _lgamma_correction(y)


def scaled_chi_pdf(n: int, z):
    """Density of Z = sigma_hat/sigma for a normal sample of size n.

    Z^2 follows chi-square with n-1 degrees of freedom divided by n-1; the
    density concentrates at 1 as n grows.  Zero for z <= 0.  With d = z - 1
    the exponent is c - d - (n-1) d^2/2 + (n-2) (log1p(d) - d), c the log
    constant less its O(n) part.  For |d| <= 1/4, log1p(d) - d is summed as
    -s d + 2 s^3 (1/3 + s^2/5 + ... + s^16/19) with s = d/(2 + d), from
    log1p(d) = 2 atanh(s), the omitted terms below 1e-17 of it: the direct
    difference would cancel and cost sqrt(n) ulps.
    """
    _check_sample_size(n, 2)
    z = np.asarray(z, dtype=float)
    d = np.where(z > 0, z, 1.0) - 1.0
    s = d / (2.0 + d)
    s2 = s * s
    series = 1.0 / 19.0
    for k in range(8, 0, -1):
        series = series * s2 + 1.0 / (2 * k + 1)
    excess = np.where(np.abs(d) <= 0.25, s * (2.0 * s2 * series - d), np.log1p(d) - d)
    exponent = _scaled_chi_centered_log_const(n) - d - 0.5 * (n - 1) * d * d + (n - 2) * excess
    out = np.where(z > 0, np.exp(exponent), 0.0)
    return float(out) if out.ndim == 0 else out


def scaled_chi_inverse_mean(n: int) -> float:
    """E(1/Z) for the scaled-chi variable: sqrt((n-1)/2) Gamma((n-2)/2) / Gamma((n-1)/2)."""
    _check_sample_size(n, 3)
    return math.sqrt(0.5 * (n - 1)) / gamma_half_ratio(0.5 * (n - 2))


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A sign change of f in (lo, hi), down to adjacent doubles.

    Assumes f(lo) < 0 <= f(hi) and does not check it.
    """
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@lru_cache(maxsize=None)
def _scaled_chi_support(n: int) -> tuple[float, float, float]:
    # With z = mode e^(u/2) the log density lies (n-2)/2 (e^u - 1 - u) below
    # its peak, so each end solves e^u - 1 - u = 80/(n-2) on its side of
    # u = 0; the brackets hold that root for every n >= 3.  Returns the
    # lower end, the mode and the upper end.
    c = 80.0 / (n - 2)
    u_lo = _bisect(lambda u: c - (math.expm1(u) - u), -c - 2.0, 0.0)
    u_hi = _bisect(lambda u: math.expm1(u) - u - c, 0.0, math.log(2.0 * c + 4.0))
    mode = math.sqrt((n - 2) / (n - 1))
    return mode * math.exp(0.5 * u_lo), mode, mode * math.exp(0.5 * u_hi)


def scaled_chi_expectation(
    fn: Callable[[np.ndarray], np.ndarray], n: int, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float | np.ndarray:
    """E fn(Z) for Z = sigma_hat/sigma from a normal sample of size n >= 3.

    fn maps a 1-D array of z to values of any leading shape with the z axis
    last, as for `integrate`, and the result has that leading shape.  It is
    one adaptive integral of fn times `scaled_chi_pdf` with the mode
    sqrt((n-2)/(n-1)) as breakpoint, over the support where the density is
    within e^-40 of its peak (found once per n and cached).  The tails
    beyond are cut silently: each holds a probability below 3e-19 (40-digit
    mpmath, n = 3 to 10^6).  At n = 3 the support starts at z = 1.8e-18, so
    an fn that grows like 1/z at 0, as E(1/Z) does, loses under 4e-18 there.
    """
    _check_sample_size(n, 3)
    lo, mode, hi = _scaled_chi_support(n)
    return integrate(lambda z: fn(z) * scaled_chi_pdf(n, z), lo, hi, cfg, points=(mode,))
