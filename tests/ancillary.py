"""The two ancillary densities of the real MISE, as test references.

The standardized residual R = (X1 - mean_hat)/sigma_hat and the standardized
pair difference (X1 - X2)/sigma_hat have parameter-free densities: even
polynomials of degree (n-4)/2 in the squared argument, supported on bounded
intervals.  Their constants and edges come from `bandwidth._ancillary_shape`,
the same ones `_real_mise_nested` integrates against, so tests of these pdfs
check that route's constants.
"""

from typing import Callable, NamedTuple

import numpy as np

from normrisk.bandwidth import _ancillary_shape
from normrisk.numerics import _check_sample_size


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
