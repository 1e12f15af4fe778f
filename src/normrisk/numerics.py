"""Self-contained numerical kernel used by the risk modules.

Provides adaptive Gauss-Kronrod quadrature over finite intervals, the
one fixed 32-point Gauss-Legendre rule (`_LEGENDRE_NODES`,
`_LEGENDRE_WEIGHTS`) that the kernel and bandwidth modules share, the
standard normal density, the gamma-function ratio and the
Kummer function the risk formulas need, and every expectation over the
law of the scaled sample standard deviation: one adaptive integral for a
whole column of sample sizes (`scaled_chi_column`), a single n being a
column of one.

The one fixed rule, the 32-point Gauss-Legendre rule that `kummer_m_half`
also sums over, is stored as float literals: the doubles that numpy
2.4.6's `leggauss` returns.  Nothing builds it at run time, so results do
not depend on the LAPACK that numpy links, and `numpy.polynomial` is never
imported.

The quadrature takes array-valued integrands only: f maps a 1-D array of
nodes to an array whose last axis runs over those nodes, and any leading
axes are components integrated together over one panel tree.  A function
that accepts only a float is rejected with TypeError.

Everything is built on `math` and numpy alone; scipy is not needed at run
time.

All routines are pure functions of their arguments and safe to call from
any number of concurrent workers.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class NumericsError(Exception):
    """Base class for numerical failures raised by this package."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not reach the requested tolerance."""


class MinimizationError(NumericsError):
    """The MISE's slope has no root inside its bracket.  There is no
    minimizer: a bandwidth constant is that root, bisected."""


#: the package's quadrature error target: absolute below 1, relative above
DEFAULT_TOL = 1e-10

#: panel splits after which `integrate` gives up on a target it cannot reach
_MAX_SUBDIVISIONS = 4096
#: integrand values one refinement call may return, unless the first call
#: or a single split returns more
_MAX_CALL_VALUES = 2**14


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


def _gk15(
    f: Callable[[np.ndarray], np.ndarray], panels: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, list[float]]:
    """The Gauss-Kronrod rule on every (a, b) panel, in one integrand call.

    The panels need not be adjacent.  Returns the panel integrals, panel
    axis last after the integrand's own leading shape, and each panel's
    error bound as a float: the largest bound among the integrand's
    components.
    """
    ends = np.array(panels)
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    x = (0.5 * (ends[:, :1] + ends[:, 1:]) + half[:, None] * _K15_NODES).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape[-1:] != x.shape:
        raise TypeError(
            f"integrand returned shape {y.shape} for {x.size} nodes; "
            "it must map a 1-D node array to values with the node axis last"
        )
    if not np.isfinite(y).all():
        finite = np.isfinite(y).reshape(-1, half.size, 15).all(axis=(0, 2))
        a, b = panels[int(finite.argmin())]
        raise QuadratureError(f"non-finite integrand values on the panel [{a!r}, {b!r}]")
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
    tol: float = DEFAULT_TOL,
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

    Refinement runs in passes of one integrand call each.  A pass takes the
    panels of largest bound until the bound left in the others is within
    the target, and evaluates the halves of all of them together.  So that
    a wide integrand does not grow its value arrays, a call holds at most
    2**14 values or as many panels as the first call, whichever is more,
    and never fewer than one split.

    Raises QuadratureError when the summed error bound cannot be brought
    below tol * max(1, min_j |I_j|) within 4096 panel splits, so that every
    component I_j meets its own target, or when f returns a NaN or an
    infinity; either message names the panel at fault.  TypeError when f
    does not return the node axis last (a scalar-only f, for one);
    ValueError unless lo < hi, both finite, and unless 0 < tol < inf (an
    infinite target would stop after the first pass).
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"invalid interval: need finite lo={lo!r} < hi={hi!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    cuts = sorted({lo, hi, *(p for p in points if lo < p < hi)})
    panels = list(zip(cuts[:-1], cuts[1:]))
    vals, errs = _gk15(f, panels)
    # a split adds two panels of 15 nodes for each component
    split_values = 30 * (vals.size // len(panels))
    per_pass = max(1, len(panels) // 2, _MAX_CALL_VALUES // split_values)
    total = 0.0
    err_total = 0.0
    heap: list[tuple[float, float, float, np.ndarray, float]] = []
    for i, ((a, b), err) in enumerate(zip(panels, errs)):
        total += vals[..., i]
        err_total += err
        heapq.heappush(heap, (-err, a, b, vals[..., i], err))

    splits = 0
    while True:
        target = tol * max(1.0, min(abs(total).flat, default=math.inf))
        # a bound that overflowed to inf or NaN fails `<=`: it never counts as met
        if err_total <= target:
            return float(total) if np.ndim(total) == 0 else total
        if splits >= _MAX_SUBDIVISIONS:
            _, a, b, _, err = heap[0]
            raise QuadratureError(
                f"no convergence after {splits} subdivisions: "
                f"estimate {np.array2string(np.asarray(total), precision=6)}, "
                f"error bound {err_total:.3g}, worst panel [{a!r}, {b!r}] with bound {err:.3g}"
            )
        # the panels of largest bound, until the bound left in the others
        # meets the target; the first is always taken
        popped = []
        left = err_total
        cap = min(per_pass, _MAX_SUBDIVISIONS - splits)
        while heap and len(popped) < cap and not left <= target:
            popped.append(heapq.heappop(heap))
            left -= popped[-1][4]
        halves = []
        for _, a, b, _, _ in popped:
            mid = 0.5 * (a + b)
            halves += ((a, mid), (mid, b))
        vals, errs = _gk15(f, halves)
        for i, (_, a, b, val, err) in enumerate(popped):
            mid = halves[2 * i][1]
            v1, v2 = vals[..., 2 * i], vals[..., 2 * i + 1]
            e1, e2 = errs[2 * i : 2 * i + 2]
            total += v1 + v2 - val
            err_total += e1 + e2 - err
            heapq.heappush(heap, (-e1, a, mid, v1, e1))
            heapq.heappush(heap, (-e2, mid, b, v2, e2))
        splits += len(popped)


# The positive half of the 32-point Gauss-Legendre rule on [-1, 1], nodes
# ascending: the doubles of numpy 2.4.6's leggauss(32), whose nodes and
# weights are symmetric bit for bit, so mirroring them rebuilds the rule.
_LEGENDRE_NODES_POS = np.array((
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
    0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
    0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
    0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
    0.9972638618494816,
))
_LEGENDRE_WEIGHTS_POS = np.array((
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
    0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
    0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
    0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
    0.007018610009470506,
))
_LEGENDRE_NODES = np.concatenate((-_LEGENDRE_NODES_POS[::-1], _LEGENDRE_NODES_POS))
_LEGENDRE_WEIGHTS = np.concatenate((_LEGENDRE_WEIGHTS_POS[::-1], _LEGENDRE_WEIGHTS_POS))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def std_normal_pdf(x):
    """Standard normal density, elementwise on arrays."""
    x = np.asarray(x, dtype=float)
    pdf = np.exp(x * -0.5 * x - _LOG_SQRT_2PI)
    return float(pdf) if pdf.ndim == 0 else pdf


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


def kummer_m_half(b: float, x):
    """Kummer's function M(1/2, b, -x) for b >= 1 and x >= 0, elementwise in x.

    It is E exp(-x B) for B ~ Beta(1/2, b - 1/2), the arcsine law at b = 1.
    Under B = sin(theta)^2 the beta integral is

        M = 2 Gamma(b) / (sqrt(pi) Gamma(b - 1/2))
            * int_0^theta_max exp(-x s^2 + (b - 1) log1p(-s^2)) dtheta,  s = sin(theta),

    a smooth bell in theta.  Its exponent is at most -(x + b - 1) s^2, so
    the range stops where sin(theta_max)^2 = 40 / max(x + b - 1, 40), and
    the integral is one 32-point Gauss-Legendre sum on [0, theta_max].
    Against 30-digit mpmath the relative error is below 1e-14 for b = 1,
    3/2, 2, 5/2, ... up to 5e7 and every x tried (up to 1e7).
    """
    if not b >= 1.0:
        raise ValueError(f"kummer_m_half requires b >= 1, got {b!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("kummer_m_half requires x >= 0")
    half = 0.5 * np.arcsin(np.sqrt(40.0 / np.maximum(x + b - 1.0, 40.0)))
    s2 = np.sin(half[..., None] * (1.0 + _LEGENDRE_NODES)) ** 2
    bell = np.exp((b - 1.0) * np.log1p(-s2) - x[..., None] * s2)
    out = 2.0 * gamma_half_ratio(b - 0.5) / math.sqrt(math.pi) * half * (bell @ _LEGENDRE_WEIGHTS)
    return float(out) if out.ndim == 0 else out


def _check_sample_size(n, minimum: int) -> None:
    """Raise ValueError unless n is an integer of at least `minimum`."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample size n must be an integer, got {n!r}")
    if n < minimum:
        raise ValueError(f"sample size n must be at least {minimum}, got {n}")


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


def _expm1_minus_identity(u: np.ndarray) -> np.ndarray:
    # e^u - 1 - u.  For |u| <= 1/4 it is summed as u^2 (1/2! + u/3! + ... +
    # u^11/13!), the omitted terms below 2e-18 of it: the direct difference
    # would cancel, and times (n-2)/2 in a log density cost sqrt(n) ulps
    small = np.abs(u) <= 0.25
    v = np.where(small, u, 0.0)
    series = 0.0
    for k in range(13, 1, -1):
        series = series * v + 1.0 / math.factorial(k)
    return np.where(small, v * v * series, np.expm1(u) - u)


#: breakpoints of `scaled_chi_column` in its variable t
_COLUMN_BREAKS = (-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)


def scaled_chi_column(
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ns: Sequence[int],
    tol: float = DEFAULT_TOL,
    points: Sequence[float] = _COLUMN_BREAKS,
) -> np.ndarray:
    """E fn(n, Z_n, Z_n - 1) for every n of ns, all as one adaptive integral.

    Z_n = sigma_hat/sigma for a normal sample of size n: Z_n^2 is chi-square
    with n-1 degrees of freedom divided by n-1.  ns is a non-empty 1-D
    sequence of integers n >= 3, in any order and with repeats; a single n
    is a column of one.  fn receives the column of ns as floats, shape
    (k, 1), then z and d = z - 1, each of shape (k, nodes) with row i for
    ns[i], and returns values of any leading shape followed by (k, nodes);
    the result has that leading shape followed by (k,).  d is
    expm1(log z), so it is off by about an ulp of log z, O(1/sqrt(n)), not
    by an ulp of 1.

    Each n is integrated over t = u sqrt((n-2)/2), with z = mode e^(u/2) and
    mode = sqrt((n-2)/(n-1)).  The log density of t lies
    (n-2)/2 (e^u - 1 - u) - u/2 below its value at t = 0, about t^2/2 for
    every n, so all rows share one panel tree; the weight is formed in u and
    carries no rounding of z.  The range is the union of each n's support
    mapped to t, from t = -58 at n = 3 to about +-9 for large n: the z where
    the density is within e^-40 of its peak, found once per n and cached.
    The tails beyond are cut silently: each holds a probability below 3e-19
    (40-digit mpmath, n = 3 to 10^6).  At n = 3 the support starts at
    z = 1.8e-18, so an fn that grows like 1/z at 0, as E(1/Z) does, loses
    under 4e-18 there.

    `tol` is `integrate`'s error target.  `points` are the breakpoints in t,
    by default t = -16, -8, -4, -2, -1, 0, 1, 2, 4, 8; a wide fn passes
    fewer, such as the mode t = 0 alone, so that its first call stays small.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("the scaled-chi column needs at least one sample size")
    for n in ns:
        _check_sample_size(n, 3)
    column = np.array(ns, dtype=float)[:, None]
    scale = np.sqrt(0.5 * (column - 2.0))
    log_mode = 0.5 * np.log1p(-1.0 / (column - 1.0))
    # the log weight at t = 0: 1/2 - log sqrt(2 pi) + (n-2) log(mode) less
    # the Stirling remainder of log Gamma((n-1)/2)
    log_peak = 0.5 - _LOG_SQRT_2PI + (column - 2.0) * log_mode
    log_peak -= np.array([[_lgamma_correction(0.5 * (n - 1))] for n in ns])
    ends = [
        2.0 * root * math.log(end / mode)
        for root, (lo, mode, hi) in zip(scale.ravel().tolist(), map(_scaled_chi_support, ns))
        for end in (lo, hi)
    ]

    def weighted(t):
        u = t / scale
        log_z = 0.5 * u + log_mode
        weight = np.exp(log_peak + 0.5 * u - scale * scale * _expm1_minus_identity(u))
        return fn(column, np.exp(log_z), np.expm1(log_z)) * weight

    return integrate(weighted, min(ends), max(ends), tol, points)
