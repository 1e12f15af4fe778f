"""Acceptance suite: the published comparison results, reproduced end to end.

One test per criterion, each printing a PASS/FAIL line.  Three printed
values are known to be defective and are marked as strict expected
failures, with the independently verified exact values asserted alongside
in companion regression tests:

* the benchmark MISE at n = 3 (printed 0.23230, exact 0.2323351),
* the Epanechnikov estimated-bandwidth ratio at n = 1000 (printed 4.032,
  exact 4.0355),
* the 1/n coefficient of the MISE-coefficient expansion (printed 271/96;
  the exact coefficient is 423/256, so the stated remainder bound fails).

Details and the verification trail live in the repository notes.
"""

import math

import numpy as np
import pytest

from ancillary import ancillary_densities
from substreams import substream
from tests.conftest import PUBLISHED_TABLE, VERIFIED_CORRECTIONS

from normrisk.bandwidth import (
    McConfig,
    optimal_bandwidth_constant,
    real_mise_exact,
    real_mise_mc,
    rule_of_thumb,
)
from normrisk.case_studies import lognormal_crossover, skew_normal_asymptotic_mise
from normrisk.cli import TABLE_SAMPLE_SIZES, figure_curves
from normrisk.kernels import (
    EPANECHNIKOV_KERNEL,
    NORMAL_KERNEL,
    gk_epanechnikov,
    kernel_eval,
    mise_closed_epan_kernel,
    mise_closed_normal_kernel,
    mise_exact_generic,
    mise_fixed_bandwidth,
)
from normrisk.numerics import integrate, normal_mass, std_normal_pdf
from normrisk.parametric import (
    PLUGIN_AMISE_CONSTANT,
    STD_NORMAL,
    NormalParams,
    asymptotic_mise_general,
    exact_mise_plugin,
    exact_mse_plugin,
    plugin_mise_coefficient,
)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.mark.xfail(
    strict=True,
    reason="printed benchmark at n=3 is 0.23230; the exact value is 0.2323351 "
    "(confirmed to 40 digits), outside the 1e-5 tolerance",
)
def test_c01_benchmark_column(table_rows):
    bad = [
        n
        for n in TABLE_SAMPLE_SIZES
        if abs(table_rows[n].plugin_mise - PUBLISHED_TABLE[n][0]) > 1e-5
    ]
    report(1, not bad, f"benchmark MISE column within 1e-5 (mismatches: {bad or 'none'})")
    assert not bad


def test_c01_benchmark_column_verified(table_rows):
    # same column against the defect-corrected reference
    for n in TABLE_SAMPLE_SIZES:
        expected = VERIFIED_CORRECTIONS.get(("benchmark", n), PUBLISHED_TABLE[n][0])
        assert table_rows[n].plugin_mise == pytest.approx(expected, abs=1e-5)
    report(1, True, "benchmark MISE column within 1e-5 (n=3 cell at its verified value)")


def test_c02_umvu_ratios(table_rows):
    assert math.isinf(table_rows[3].umvu_ratio)
    bad = [
        n
        for n in TABLE_SAMPLE_SIZES
        if n >= 4 and abs(table_rows[n].umvu_ratio - PUBLISHED_TABLE[n][1]) > 1e-4
    ]
    report(2, not bad, f"unbiased-estimator ratios within 1e-4, infinite at n=3 ({bad or 'none'})")
    assert not bad


def test_c03_bandwidth_constants(table_rows):
    ns = list(TABLE_SAMPLE_SIZES)
    b_ok = all(abs(table_rows[n].b_n - PUBLISHED_TABLE[n][2]) <= 1e-4 for n in ns)
    c_ok = all(abs(table_rows[n].c_n - PUBLISHED_TABLE[n][5]) <= 1e-4 for n in ns)
    b_dec = all(table_rows[a].b_n > table_rows[b].b_n for a, b in zip(ns, ns[1:]))
    c_dec = all(table_rows[a].c_n > table_rows[b].c_n for a, b in zip(ns, ns[1:]))
    b_lim = optimal_bandwidth_constant(NORMAL_KERNEL, 10**6)
    c_lim = optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, 10**6)
    lim_ok = abs(b_lim - 1.0592) / 1.0592 < 0.005 and abs(c_lim - 4.6898) / 4.6898 < 0.005
    ok = b_ok and c_ok and b_dec and c_dec and lim_ok
    report(3, ok, "bandwidth constants match to 4 decimals, decrease, and approach their limits")
    assert b_ok and c_ok
    assert b_dec and c_dec
    assert lim_ok


def test_c04_oracle_bandwidth_ratios(table_rows):
    bad = [
        n
        for n in TABLE_SAMPLE_SIZES
        if abs(table_rows[n].normal_ratio1 - PUBLISHED_TABLE[n][3]) > 0.002
        or abs(table_rows[n].epan_ratio1 - PUBLISHED_TABLE[n][6]) > 0.002
    ]
    report(4, not bad, f"best-bandwidth MISE ratios within 0.002 ({bad or 'none'})")
    assert not bad


@pytest.mark.xfail(
    strict=True,
    reason="printed Epanechnikov estimated-bandwidth ratio at n=1000 is 4.032; "
    "the exact value is 4.0355 (confirmed to 25 digits), outside the 0.003 tolerance",
)
def test_c05_estimated_bandwidth_ratios(table_rows):
    bad = [
        n
        for n in TABLE_SAMPLE_SIZES
        if abs(table_rows[n].normal_ratio2 - PUBLISHED_TABLE[n][4]) > 0.003
        or abs(table_rows[n].epan_ratio2 - PUBLISHED_TABLE[n][7]) > 0.003
    ]
    ordered = all(
        table_rows[n].normal_ratio2 >= table_rows[n].normal_ratio1
        and table_rows[n].epan_ratio2 >= table_rows[n].epan_ratio1
        for n in TABLE_SAMPLE_SIZES
    )
    report(
        5,
        not bad and ordered,
        f"estimated-bandwidth ratios within 0.003 and above best-bandwidth ones ({bad or 'none'})",
    )
    assert ordered
    assert not bad


def test_c05_estimated_bandwidth_ratios_verified(table_rows):
    for n in TABLE_SAMPLE_SIZES:
        expected_e = VERIFIED_CORRECTIONS.get(("epan_ratio2", n), PUBLISHED_TABLE[n][7])
        assert table_rows[n].normal_ratio2 == pytest.approx(PUBLISHED_TABLE[n][4], abs=0.003)
        assert table_rows[n].epan_ratio2 == pytest.approx(expected_e, abs=0.003)
        assert table_rows[n].normal_ratio2 >= table_rows[n].normal_ratio1
        assert table_rows[n].epan_ratio2 >= table_rows[n].epan_ratio1
    report(5, True, "estimated-bandwidth ratios within 0.003 (n=1000 cell at its verified value)")


def test_c06_crossover_sample_sizes(table_rows):
    ns = list(TABLE_SAMPLE_SIZES)
    normal_oracle = all((table_rows[n].normal_ratio1 < 1.0) == (n <= 14) for n in ns)
    normal_estimated = all((table_rows[n].normal_ratio2 < 1.0) == (n <= 9) for n in ns)
    epan_oracle = all((table_rows[n].epan_ratio1 < 1.0) == (n <= 15) for n in ns)
    epan_estimated = all((table_rows[n].epan_ratio2 < 1.0) == (n <= 10) for n in ns)
    # with estimated bandwidths the normal kernel wins only up to n = 7
    kernel_duel = all(
        (table_rows[n].normal_ratio2 < table_rows[n].epan_ratio2) == (n <= 7)
        for n in ns
    )
    ok = normal_oracle and normal_estimated and epan_oracle and epan_estimated and kernel_duel
    report(6, ok, "kernel-vs-parametric and kernel-vs-kernel crossover sample sizes")
    assert normal_oracle and normal_estimated
    assert epan_oracle and epan_estimated
    assert kernel_duel


def test_c07_generic_equals_closed():
    worst = 0.0
    for n in (3, 10, 50):
        for h in (0.2, 0.5, 1.0):
            gap_n = abs(
                mise_exact_generic(NORMAL_KERNEL, STD_NORMAL, n, h).value
                - mise_closed_normal_kernel(n, h)
            )
            gap_e = abs(
                mise_exact_generic(EPANECHNIKOV_KERNEL, STD_NORMAL, n, h).value
                - mise_closed_epan_kernel(n, h)
            )
            worst = max(worst, gap_n, gap_e)
    report(7, worst <= 1e-8, f"quadrature and closed-form MISE agree (worst gap {worst:.2e})")
    assert worst <= 1e-8


@pytest.fixture(scope="module")
def mise_coefficients():
    return {n: plugin_mise_coefficient(n) for n in range(3, 1001)}


def test_c08a_coefficient_monotone(mise_coefficients):
    values = [mise_coefficients[n] for n in range(3, 1001)]
    ok = all(a > b for a, b in zip(values, values[1:]))
    report(8, ok, "MISE coefficient strictly decreasing over n = 3..1000 (part a)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the printed 1/n coefficient 271/96 is not the expansion of the exact "
    "sequence (it is 423/256); the scaled remainder grows linearly instead of "
    "staying bounded",
)
def test_c08b_expansion_remainder_bounded():
    grid = [20, 35, 50, 100, 200, 350, 500, 750, 1000]
    residuals = {
        n: n * n * abs(plugin_mise_coefficient(n) - 7.0 / 8.0 - (271.0 / 96.0) / n) for n in grid
    }
    bound = 1.25 * residuals[20]
    growing = [n for n in grid if residuals[n] > bound]
    report(
        8,
        not growing,
        f"n^2-scaled expansion remainder bounded (part b; exceeds bound at {growing or 'none'})",
    )
    assert not growing


def test_c08b_expansion_remainder_verified(mise_coefficients):
    # with the corrected coefficient the scaled remainder is flat (~3.1-3.5)
    grid = [20, 35, 50, 100, 200, 350, 500, 750, 1000]
    residuals = [
        n * n * abs(mise_coefficients[n] - 7.0 / 8.0 - (423.0 / 256.0) / n) for n in grid
    ]
    assert max(residuals) <= 1.25 * residuals[0]
    assert max(residuals) < 4.0
    report(8, True, "scaled remainder of the corrected expansion stays bounded (part b)")


def test_c09_pointwise_crossings_at_fourteen():
    xs = np.arange(0.0, 3.0001, 0.02)
    parametric, kernel = figure_curves(1, 14, xs)
    diff = np.array([k[3] ** 2 - p[3] ** 2 for p, k in zip(parametric.points, kernel.points)])
    crossings = [
        float(0.5 * (xs[i] + xs[i + 1])) for i in range(len(xs) - 1) if diff[i] * diff[i + 1] < 0
    ]
    ok = (
        len(crossings) == 2
        and abs(crossings[0] - 0.17) <= 0.02
        and abs(crossings[1] - 1.53) <= 0.02
    )
    report(9, ok, f"pointwise MSE sign changes at {[round(c, 3) for c in crossings]}")
    assert ok


def test_c10_kernel_duel_at_fourteen(table_rows):
    ratio = table_rows[14].epan_ratio1 / table_rows[14].normal_ratio1
    target = 0.948 / 0.973
    ok = abs(ratio - target) <= 0.003
    report(10, ok, f"best-bandwidth MISE ratio between kernels at n=14: {ratio:.4f}")
    assert ok


def test_c11_monte_carlo_consistency(table_rows):
    failures = []
    for kernel in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL):
        for n in (5, 10):
            rule = rule_of_thumb(kernel, n)
            exact = real_mise_exact(rule, n).value
            mc = real_mise_mc(rule, n, McConfig(replicates=10**4, eval_points=10, seed=2718))
            if abs(mc.value - exact) > 3.0 * mc.std_error:
                failures.append((kernel.name, n, mc.value, exact, mc.std_error))
    report(11, not failures, f"Monte Carlo within 3 standard errors of exact ({failures or 'none'})")
    assert not failures


def test_c12_lognormal_crossovers():
    got = {b: lognormal_crossover(b).n_crossover for b in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)}
    expected = {0.2: 312, 0.4: 87, 0.6: 45, 0.8: 31, 1.0: 25, 1.2: 22}
    report(12, got == expected, f"lognormal crossover sample sizes {got}")
    assert got == expected


def test_c13_skew_family_constant():
    value = skew_normal_asymptotic_mise(1.0)
    ratio = value / PLUGIN_AMISE_CONSTANT
    trace = asymptotic_mise_general(
        lambda x, th: np.array([x - th[0], ((x - th[0]) ** 2 / th[1] ** 2 - 1.0) / th[1]]),
        lambda x, th: std_normal_pdf((x - th[0]) / th[1]) / th[1],
        (0.0, 1.0),
        support=(-12.0, 12.0),
    )
    ok = (
        abs(value - 0.342) <= 0.002
        and abs(ratio - 1.386) <= 0.005
        and abs(trace - PLUGIN_AMISE_CONSTANT) <= 1e-8
    )
    report(13, ok, f"skew-family constant {value:.4f}, ratio {ratio:.4f}")
    assert abs(value - 0.342) <= 0.002
    assert abs(ratio - 1.386) <= 0.005
    assert abs(trace - PLUGIN_AMISE_CONSTANT) <= 1e-8


def test_c14_property_suite_spot_checks():
    """Fast representatives of every invariant family; the full property
    suite is the rest of this test tree."""
    checks = {}

    # normalizations
    checks["kernel_mass"] = abs(
        integrate(lambda u: kernel_eval(EPANECHNIKOV_KERNEL, u), -0.5, 0.5) - 1.0
    ) < 1e-10
    checks["pair_density_mass"] = abs(integrate(gk_epanechnikov, -1.0, 1.0) - 1.0) < 1e-10
    dens = ancillary_densities(10)
    checks["ancillary_mass"] = all(
        abs(integrate(pdf, -edge, edge) - 1.0) < 1e-8
        for pdf, edge in (
            (dens.residual_pdf, dens.residual_edge),
            (dens.pair_diff_pdf, dens.pair_diff_edge),
        )
    )

    # interval additivity of the normal mass
    a, b, c = -1.3, 0.2, 2.4
    checks["mass_additive"] = abs(
        normal_mass(a, b) + normal_mass(b, c) - normal_mass(a, c)
    ) < 1e-14

    # scale identities
    p = NormalParams(0.0, 2.0)
    checks["mise_scale"] = abs(
        mise_fixed_bandwidth(NORMAL_KERNEL, p, 9, 1.0).value
        - mise_closed_normal_kernel(9, 0.5) / 2.0
    ) < 1e-12
    checks["mse_scale"] = abs(
        exact_mse_plugin(1.0, p, 9).mse - exact_mse_plugin(0.5, STD_NORMAL, 9).mse / 4.0
    ) < 1e-12

    # the Gaussian shift identity behind the conditional moments
    t, shift = 1.0, 0.7
    lhs = integrate(
        lambda v: np.exp(-0.5 * t * (v + shift) ** 2) * std_normal_pdf(v), -40.0, 40.0
    )
    rhs = (1.0 + t) ** -0.5 * math.exp(-0.5 * shift * shift * t / (1.0 + t))
    checks["shift_identity"] = abs(lhs - rhs) < 1e-10

    # pair-difference density equals the defining convolution
    conv = integrate(
        lambda x: kernel_eval(EPANECHNIKOV_KERNEL, x - 0.15) * kernel_eval(EPANECHNIKOV_KERNEL, x + 0.15),
        -0.35,
        0.35,
    )
    checks["self_convolution"] = abs(gk_epanechnikov(0.3) - conv) < 1e-10

    # determinism
    checks["sampler_deterministic"] = np.array_equal(
        substream(5, 0).standard_normal(64), substream(5, 0).standard_normal(64)
    )
    rule = rule_of_thumb(NORMAL_KERNEL, 5)
    mc_cfg = McConfig(replicates=200, eval_points=3, seed=11)
    checks["mc_deterministic"] = real_mise_mc(rule, 5, mc_cfg) == real_mise_mc(rule, 5, mc_cfg)

    failed = sorted(name for name, ok in checks.items() if not ok)
    report(14, not failed, f"invariant spot checks ({failed or 'all pass'})")
    assert not failed
