"""Exact finite-sample risk of density estimators of a normal density.

Computes pointwise MSE and global MISE, both exact and asymptotic, for the
normality-based plug-in estimator, the unbiased parametric estimator, and
kernel estimators with the normal and parabolic kernels; finds the exact
optimal bandwidth constants; and evaluates the MISE actually incurred when
the bandwidth is estimated from data.
"""

from .bandwidth import (
    AncillaryDensities,
    BandwidthRule,
    McConfig,
    ancillary_densities,
    optimal_bandwidth_constant,
    expected_density_at,
    real_mise_exact,
    real_mise_mc,
    rule_of_thumb,
)
from .case_studies import (
    CrossoverResult,
    LognormalParams,
    lognormal_crossover,
    lognormal_mse_nonparametric,
    lognormal_mse_parametric,
    lognormal_variance_ratio_limit,
    skew_normal_asymptotic_mise,
    skew_normal_density,
    skew_normal_score,
)
from .cli import ComparisonRow, RiskCurve, comparison_row, figure_curves, main
from .kernels import (
    EPANECHNIKOV_KERNEL,
    KERNELS,
    NORMAL_KERNEL,
    ExactMoments,
    Kernel,
    KernelMse,
    asymptotic_kernel_risk,
    exact_moments,
    exact_mse_kernel,
    gk_epanechnikov,
    kernel_eval,
    kernel_self_convolution,
    mise_closed_epan_kernel,
    mise_closed_normal_kernel,
    mise_exact_generic,
    mise_fixed_bandwidth,
    truncated_normal_moments,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    MinimizationError,
    NumericsError,
    QuadratureConfig,
    QuadratureError,
    integrate,
    normal_mass,
    scaled_chi_interval,
    scaled_chi_inverse_mean,
    scaled_chi_pdf,
    std_normal_cdf,
    std_normal_logcdf,
    std_normal_pdf,
    substream,
)
from .parametric import (
    MiseReport,
    MseParts,
    NormalParams,
    PLUGIN_AMISE_CONSTANT,
    PluginEstimate,
    STD_NORMAL,
    asymptotic_mise_general,
    asymptotic_mise_plugin,
    asymptotic_mse_plugin,
    conditional_moments,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
    plugin_density,
    plugin_mise_coefficient,
    plugin_mise_expansion_residual,
    shrink_factor,
    shrunk_mise,
    umvu_density,
)

__version__ = "0.1.0"
