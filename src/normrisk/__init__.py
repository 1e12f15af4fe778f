"""Exact finite-sample risk of density estimators of a normal density.

Computes pointwise MSE and global MISE, both exact and asymptotic, for the
normality-based plug-in estimator, the unbiased parametric estimator, and
kernel estimators with the normal and parabolic kernels; finds the exact
optimal bandwidth constants; and evaluates the MISE actually incurred when
the bandwidth is estimated from data.

The package root exports the documented library; every other name lives in
its own module.  The comparison table and the figure curves are built in
`normrisk.cli`, which importing the package does not load.
"""

from .bandwidth import (
    BandwidthRule,
    McConfig,
    optimal_bandwidth_constant,
    real_mise_exact,
    real_mise_mc,
    rule_of_thumb,
)
from .case_studies import (
    LognormalParams,
    lognormal_crossover,
    lognormal_mse_nonparametric,
    lognormal_mse_parametric,
    skew_normal_asymptotic_mise,
)
from .kernels import (
    EPANECHNIKOV_KERNEL,
    NORMAL_KERNEL,
    asymptotic_kernel_risk,
    exact_mse_kernel,
    mise_fixed_bandwidth,
)
from .numerics import MinimizationError, NumericsError, QuadratureError
from .parametric import (
    STD_NORMAL,
    MiseReport,
    NormalParams,
    PointRisk,
    asymptotic_mise_plugin,
    asymptotic_mse_plugin,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
)

__all__ = [
    # estimands, kernels and results
    "NormalParams", "STD_NORMAL", "MiseReport", "PointRisk", "NORMAL_KERNEL", "EPANECHNIKOV_KERNEL",
    # exact risk
    "exact_mse_plugin", "exact_mse_kernel", "exact_mise_plugin", "exact_mise_umvu",
    "mise_fixed_bandwidth",
    # large-sample risk
    "asymptotic_mse_plugin", "asymptotic_mise_plugin", "asymptotic_kernel_risk",
    # bandwidth rules and their real MISE
    "optimal_bandwidth_constant", "rule_of_thumb", "BandwidthRule",
    "real_mise_exact", "real_mise_mc", "McConfig",
    # side studies
    "LognormalParams", "lognormal_mse_nonparametric", "lognormal_mse_parametric",
    "lognormal_crossover", "skew_normal_asymptotic_mise",
    # numerics
    "NumericsError", "QuadratureError", "MinimizationError",
]

__version__ = "0.1.0"
