"""Shared fixtures: the published comparison-table values and cached rows.

PUBLISHED_TABLE holds the printed reference values the acceptance suite checks
against: benchmark MISE of the plug-in estimator, MISE ratios for the
unbiased estimator and both kernel estimators (best fixed bandwidth and
estimated bandwidth), and the optimal bandwidth constants.

Two cells of the printed table are known to be slightly off (the benchmark
at n = 3 and the Epanechnikov estimated-bandwidth ratio at n = 1000); the
exact values, confirmed by 25+ digit independent quadrature, are kept in
VERIFIED_CORRECTIONS and used by the regression tests, while the
acceptance tests check the printed values as stated and record the two
cells as expected failures.
"""

import pytest
from hypothesis import HealthCheck, settings

from normrisk.cli import TABLE_SAMPLE_SIZES, comparison_row
from normrisk.parametric import STD_NORMAL, plugin_mise_column

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# columns: benchmark, umvu_ratio (None = infinite), b_n, normal_ratio1,
# normal_ratio2, c_n, epan_ratio1, epan_ratio2
PUBLISHED_TABLE = {
    3: (0.23230, None, 1.2871, 0.208, 0.699, 5.2822, 0.209, 0.727),
    4: (0.11829, 1.5095, 1.2628, 0.350, 0.727, 5.2177, 0.349, 0.747),
    5: (0.07969, 1.2110, 1.2458, 0.459, 0.773, 5.1737, 0.455, 0.786),
    6: (0.06016, 1.1223, 1.2331, 0.548, 0.824, 5.1411, 0.541, 0.830),
    7: (0.04835, 1.0822, 1.2230, 0.623, 0.874, 5.1156, 0.614, 0.874),
    8: (0.04042, 1.0602, 1.2148, 0.689, 0.922, 5.0949, 0.677, 0.918),
    9: (0.03472, 1.0466, 1.2080, 0.748, 0.967, 5.0776, 0.733, 0.960),
    10: (0.03044, 1.0375, 1.2021, 0.801, 1.010, 5.0628, 0.784, 0.9997),
    11: (0.02710, 1.0312, 1.1970, 0.849, 1.050, 5.0500, 0.830, 1.037),
    12: (0.02441, 1.0264, 1.1925, 0.894, 1.088, 5.0388, 0.872, 1.072),
    13: (0.02222, 1.0229, 1.1885, 0.935, 1.124, 5.0288, 0.911, 1.106),
    14: (0.02038, 1.0201, 1.1849, 0.973, 1.157, 5.0198, 0.948, 1.137),
    15: (0.01883, 1.0178, 1.1816, 1.009, 1.189, 5.0117, 0.982, 1.167),
    16: (0.01749, 1.0160, 1.1786, 1.043, 1.220, 5.0043, 1.015, 1.195),
    17: (0.01633, 1.0145, 1.1759, 1.075, 1.249, 4.9975, 1.045, 1.223),
    18: (0.01532, 1.0132, 1.1734, 1.106, 1.276, 4.9913, 1.074, 1.248),
    19: (0.01443, 1.0121, 1.1711, 1.135, 1.303, 4.9855, 1.102, 1.273),
    20: (0.01363, 1.0112, 1.1689, 1.163, 1.328, 4.9801, 1.128, 1.297),
    50: (0.00513, 1.0032, 1.1368, 1.694, 1.824, 4.8996, 1.631, 1.764),
    100: (0.00252, 1.0014, 1.1190, 2.150, 2.259, 4.8540, 2.064, 2.175),
    1000: (0.00025, 1.0001, 1.0842, 4.163, 4.214, 4.7617, 3.983, 4.032),
}

# independently verified exact values for the two defective printed cells
VERIFIED_CORRECTIONS = {
    ("benchmark", 3): 0.2323351102,
    ("epan_ratio2", 1000): 4.035455,
}

assert tuple(sorted(PUBLISHED_TABLE)) == tuple(sorted(TABLE_SAMPLE_SIZES))


@pytest.fixture(scope="session")
def table_rows():
    """Full comparison table, computed once for the whole session."""
    # the plug-in column as `normrisk table` computes it, so that these rows
    # equal the command's full-precision output
    benches = plugin_mise_column(STD_NORMAL, TABLE_SAMPLE_SIZES)
    return {n: comparison_row(n, b) for n, b in zip(TABLE_SAMPLE_SIZES, benches)}

