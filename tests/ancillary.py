"""The two ancillary densities of the real MISE, and the normal kernel's
real MISE by quadrature against them, as test references.

The standardized residual R = (X1 - mean_hat)/sigma_hat and the standardized
pair difference (X1 - X2)/sigma_hat have parameter-free densities: even
polynomials of degree (n-4)/2 in the squared argument, supported on bounded
intervals.  Their constants and edges come from `bandwidth._ancillary_shape`,
the same ones `_real_mise_nested` integrates against, so tests of these pdfs
check that route's constants.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from normrisk import numerics
from normrisk.bandwidth import (
    REAL_MISE_TOL,
    BandwidthRule,
    _ancillary_shape,
    _real_mise,
    expected_density_at,
)
from normrisk.numerics import _LEGENDRE_NODES, _LEGENDRE_WEIGHTS, _check_sample_size, std_normal_pdf
from normrisk.parametric import MiseReport, NormalParams


class AncillaryDensities(NamedTuple):
    residual_pdf: Callable
    pair_diff_pdf: Callable
    residual_edge: float
    pair_diff_edge: float


def _bounded_power_pdf(const: float, edge: float, power: float) -> Callable:
    def pdf(t):
        t = np.asarray(t, dtype=float)
        base = np.maximum(1.0 - (t / edge) ** 2, 0.0)
        out = np.where(np.abs(t) <= edge, const * np.power(base, power), 0.0)
        return float(out) if out.ndim == 0 else out

    return pdf


def ancillary_densities(n: int) -> AncillaryDensities:
    """Both standardized-statistic densities for sample size n >= 3."""
    _check_sample_size(n, 3)
    k_const, r_edge, s_edge = _ancillary_shape(n)
    power = 0.5 * (n - 4)
    return AncillaryDensities(
        residual_pdf=_bounded_power_pdf(k_const, r_edge, power),
        pair_diff_pdf=_bounded_power_pdf(k_const * r_edge / s_edge, s_edge, power),
        residual_edge=r_edge,
        pair_diff_edge=s_edge,
    )


def normal_real_mise_nested(rule: BandwidthRule, p: NormalParams, n: int) -> MiseReport:
    """The normal kernel's real MISE by quadrature against the ancillary densities.

    The independent reference for the Kummer route of `real_mise_exact`.
    The pair overlap E_S phi(S/(a sqrt 2))/(a sqrt 2) over the pair
    difference S and the estimate-truth overlap E_R int phi(u) f(R + a u) du
    over the residual R (f: `expected_density_at`) are one integral of shape
    (2,) over theta in (-theta_max, theta_max), under the sine map
    R = residual_edge sin(theta) of `_real_mise_nested`, through
    `numerics.integrate` so that tests which count its calls see this one.
    The inner integral over u is a fixed 32-point Gauss-Legendre sum on
    8 ceil(a/3) equal panels of |u| <= 8.5, so that they resolve f(R + a u)
    as it narrows like 1/a (on a fixed eight, a = 100 was 1.2e-4 off at n = 3).
    """
    _check_sample_size(n, 3)
    a = rule.multiplier
    k_const, r_edge, s_edge = _ancillary_shape(n)
    pair_scale = s_edge / (r_edge * a)
    theta_max = 0.5 * math.pi * (1.0 - 1e-12)
    if n > 3:
        theta_max = min(theta_max, math.acos(math.exp(-45.0 / (n - 3))))
    panels = 8 * math.ceil(a / 3.0)
    half = 8.5 / panels
    u = (half * (2 * np.arange(panels) + 1 - panels)[:, None] + half * _LEGENDRE_NODES).ravel()
    wk = np.tile(half * _LEGENDRE_WEIGHTS, panels) * std_normal_pdf(u)

    def overlaps(theta):
        r = r_edge * np.sin(theta)
        pair = std_normal_pdf(r * pair_scale / math.sqrt(2.0)) / math.sqrt(2.0) / a
        truth = expected_density_at(n, r[..., None] + a * u) @ wk
        return np.stack((pair, truth)) * k_const * r_edge * np.cos(theta) ** (n - 3)

    pair_overlap, truth = numerics.integrate(
        overlaps, -theta_max, theta_max, REAL_MISE_TOL, points=(0.0,)
    ).tolist()
    return _real_mise(rule, p, n, pair_overlap, truth)
