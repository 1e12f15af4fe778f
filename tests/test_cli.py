"""Command-line interface: formats, determinism, exit codes, golden values."""

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import mpmath
import numpy as np
import pytest

import normrisk
from normrisk import bandwidth, cli, numerics
from normrisk.bandwidth import (
    McConfig,
    optimal_bandwidth_constant,
    real_mise_exact,
    real_mise_mc,
    rule_of_thumb,
)
from normrisk.case_studies import skew_normal_asymptotic_mise
from normrisk.cli import main
from normrisk.kernels import (
    EPANECHNIKOV_KERNEL,
    KERNELS,
    NORMAL_KERNEL,
    asymptotic_kernel_risk,
    exact_mse_kernel,
    mise_fixed_bandwidth,
)
from normrisk.numerics import QuadratureError
from normrisk.parametric import (
    PLUGIN_AMISE_CONSTANT,
    STD_NORMAL,
    NormalParams,
    asymptotic_mise_plugin,
    asymptotic_mse_plugin,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
    plugin_mise_column,
)
from tests.conftest import PUBLISHED_TABLE

# the full comparison table as printed before the normal-kernel real MISE
# moved from nested quadrature to Kummer functions, byte for byte
TABLE_CSV = (
    "n,plugin_mise,umvu_ratio,b_n,normal_ratio1,normal_ratio2,c_n,epan_ratio1,epan_ratio2\n"
    "3,0.23234,inf,1.2871,0.2080,0.6993,5.2821,0.2088,0.7273\n"
    "4,0.11830,1.5095,1.2628,0.3498,0.7271,5.2177,0.3485,0.7474\n"
    "5,0.07969,1.2110,1.2458,0.4586,0.7730,5.1737,0.4545,0.7856\n"
    "6,0.06016,1.1223,1.2331,0.5475,0.8236,5.1411,0.5406,0.8295\n"
    "7,0.04835,1.0822,1.2230,0.6232,0.8738,5.1156,0.6135,0.8743\n"
    "8,0.04042,1.0602,1.2148,0.6891,0.9219,5.0949,0.6768,0.9182\n"
    "9,0.03472,1.0466,1.2080,0.7478,0.9674,5.0776,0.7330,0.9601\n"
    "10,0.03044,1.0375,1.2021,0.8007,1.0101,5.0628,0.7836,0.9997\n"
    "11,0.02710,1.0311,1.1970,0.8490,1.0502,5.0500,0.8297,1.0370\n"
    "12,0.02441,1.0264,1.1925,0.8935,1.0880,5.0388,0.8720,1.0723\n"
    "13,0.02222,1.0228,1.1885,0.9347,1.1236,5.0288,0.9113,1.1055\n"
    "14,0.02038,1.0200,1.1849,0.9732,1.1573,5.0198,0.9479,1.1370\n"
    "15,0.01883,1.0178,1.1816,1.0093,1.1893,5.0117,0.9822,1.1669\n"
    "16,0.01749,1.0160,1.1786,1.0433,1.2196,5.0043,1.0145,1.1953\n"
    "17,0.01633,1.0144,1.1759,1.0754,1.2485,4.9975,1.0450,1.2224\n"
    "18,0.01532,1.0132,1.1734,1.1060,1.2762,4.9913,1.0740,1.2483\n"
    "19,0.01443,1.0121,1.1711,1.1351,1.3026,4.9855,1.1016,1.2731\n"
    "20,0.01363,1.0112,1.1689,1.1628,1.3280,4.9801,1.1280,1.2969\n"
    "50,0.00513,1.0031,1.1368,1.6939,1.8244,4.8996,1.6313,1.7636\n"
    "100,0.00252,1.0014,1.1190,2.1503,2.2593,4.8540,2.0644,2.1741\n"
    "1000,0.00025,1.0001,1.0842,4.1631,4.2162,4.7617,3.9827,4.0355\n"
)


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = main([*args, "--out", str(path)])
    return code, path.read_text(encoding="utf-8")


def count_quadrature(monkeypatch):
    """Record the panels of every integrand call and the calls of every integral."""
    gk15 = numerics._gk15
    integrate = numerics.integrate
    panels = []
    calls = []

    def counting_gk15(f, pieces):
        panels.append(len(pieces))
        return gk15(f, pieces)

    def counting_integrate(*args, **kwargs):
        start = len(panels)
        value = integrate(*args, **kwargs)
        calls.append(len(panels) - start)
        return value

    monkeypatch.setattr(numerics, "_gk15", counting_gk15)
    for module in (numerics, bandwidth):
        monkeypatch.setattr(module, "integrate", counting_integrate)
    return panels, calls


class TestTableCommand:
    def test_csv_golden_subset(self, tmp_path):
        code, text = run_cli(["table", "--n", "5", "10"], tmp_path)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == (
            "n,plugin_mise,umvu_ratio,b_n,normal_ratio1,normal_ratio2,"
            "c_n,epan_ratio1,epan_ratio2"
        )
        for line, n in zip(lines[1:], (5, 10)):
            fields = line.split(",")
            bench, umvu, b_n, r1n, r2n, c_n, r1e, r2e = map(float, fields[1:])
            published = PUBLISHED_TABLE[n]
            assert int(fields[0]) == n
            # half an ulp of the printed digits plus our own rounding
            assert bench == pytest.approx(published[0], abs=1e-5)
            assert umvu == pytest.approx(published[1], abs=1e-4)
            assert b_n == pytest.approx(published[2], abs=1e-4)
            assert c_n == pytest.approx(published[5], abs=1e-4)
            for got, printed in ((r1n, published[3]), (r2n, published[4]), (r1e, published[6]), (r2e, published[7])):
                assert got == pytest.approx(printed, abs=6e-4)

    def test_full_table_golden_bytes(self, capsys):
        assert main(["table"]) == 0
        assert capsys.readouterr().out == TABLE_CSV

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(["table", "--n", "4", "7"], tmp_path, "a.csv")
        _, second = run_cli(["table", "--n", "4", "7"], tmp_path, "b.csv")
        assert first == second

    def test_infinite_ratio_formats(self, tmp_path):
        _, csv_text = run_cli(["table", "--n", "3"], tmp_path, "t.csv")
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[2] == "inf"
        assert float(row[2]) == math.inf  # round-trips through float()

        _, json_text = run_cli(["table", "--n", "3", "--format", "json"], tmp_path, "t.json")
        obj = json.loads(json_text.strip())
        assert obj["umvu_ratio"] is None
        assert obj["umvu_ratio_infinite"] is True

    def test_tol_reaches_every_quadrature_term(self, monkeypatch):
        # each of a row's three quadrature terms runs at its own fixed
        # tolerance: the plug-in MISE at 1e-10, both real MISE values at 1e-11
        seen = []
        integrate = numerics.integrate
        signature = inspect.signature(integrate)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["tol"])
            return integrate(*args, **kwargs)

        for module in (numerics, bandwidth):
            monkeypatch.setattr(module, "integrate", recording)
        cli.comparison_row(5, exact_mise_plugin(STD_NORMAL, 5).value)
        assert seen == [1e-10, 1e-11, 1e-11]

    def test_quadrature_work_per_table(self, monkeypatch):
        # each refinement pass is one integrand call: no integral of the
        # table takes more than 4 (up to 9 when every call split one panel),
        # and the panels stay within the 778 that one-panel splits took
        panels, calls = count_quadrature(monkeypatch)
        for n in cli.TABLE_SAMPLE_SIZES:
            cli.comparison_row(n, exact_mise_plugin(STD_NORMAL, n).value)
        assert len(calls) == 3 * len(cli.TABLE_SAMPLE_SIZES)
        assert max(calls) <= 4, calls
        assert sum(panels) <= 778

    def test_output_does_not_depend_on_earlier_calls(self, capsys):
        # each table computes its plug-in column afresh: values computed
        # earlier in the process, one n at a time, do not reach its output,
        # which equals a fresh process's bit for bit
        fresh = run_probe("from normrisk.cli import main; main(['table', '--format', 'json'])")
        for n in cli.TABLE_SAMPLE_SIZES:
            exact_mise_plugin(STD_NORMAL, n)
        assert main(["table", "--format", "json"]) == 0
        assert capsys.readouterr().out == fresh

    def test_quadrature_work_of_the_table_command(self, monkeypatch, capsys):
        # the plug-in column is one integral of at most 4 integrand calls, made
        # before the rows: 43 integrals where one per row and term made 63,
        # in 128 integrand calls and 533 panels where they took 203 and 778
        panels, calls = count_quadrature(monkeypatch)
        assert main(["table"]) == 0
        assert capsys.readouterr().out == TABLE_CSV
        assert len(calls) == 1 + 2 * len(cli.TABLE_SAMPLE_SIZES)
        assert calls[0] <= 4, calls
        assert len(panels) <= 128
        assert sum(panels) <= 778

    def test_figure_curve_call_size(self, monkeypatch):
        # a wide integrand keeps its calls small: the plug-in curve over the
        # 301-point figure grid integrates 2 x 301 components, and no call
        # returns more values than two panels of them (18,060), which bounds
        # the figure command's peak memory
        gk15 = numerics._gk15
        sizes = []

        def sizing_gk15(f, pieces):
            def g(x):
                y = f(x)
                sizes.append(np.size(y))
                return y

            return gk15(g, pieces)

        monkeypatch.setattr(numerics, "_gk15", sizing_gk15)
        xs = -3.0 + 0.02 * np.arange(301)
        for n in (3, 14, 100, 1000):
            exact_mse_plugin(xs, STD_NORMAL, n)
        assert max(sizes) <= 2 * 2 * 301 * 15

    def test_json_keeps_full_precision(self, capsys):
        # the CSV prints 0.00000 here; JSON once rounded the same way, to 0.0
        assert main(["table", "--n", "100000", "--format", "json"]) == 0
        plugin_mise = json.loads(capsys.readouterr().out)["plugin_mise"]
        assert plugin_mise == exact_mise_plugin(STD_NORMAL, 100000).value
        assert plugin_mise == pytest.approx(2.468376040660353e-06, rel=1e-12)

    def test_rejects_tiny_n(self, capsys):
        assert main(["table", "--n", "2"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestMiseCommand:
    def test_plugin_json(self, tmp_path):
        code, text = run_cli(
            ["mise", "--estimator", "plugin", "--n", "10", "--format", "json"], tmp_path
        )
        assert code == 0
        obj = json.loads(text)
        assert obj["value"] == pytest.approx(0.03044, abs=1e-5)
        assert obj["method"] == "quadrature"
        assert obj["infinite"] is False

    def test_umvu_infinity_exits_zero(self, tmp_path):
        code, text = run_cli(
            ["mise", "--estimator", "umvu", "--n", "3", "--format", "json"], tmp_path
        )
        assert code == 0
        obj = json.loads(text)
        assert obj["value"] is None
        assert obj["infinite"] is True

    def test_kernel_rule_matches_table_product(self, tmp_path):
        code, text = run_cli(
            [
                "mise", "--estimator", "kernel", "--kernel", "normal",
                "--n", "10", "--rule", "thumb", "--format", "json",
            ],
            tmp_path,
        )
        assert code == 0
        obj = json.loads(text)
        assert obj["value"] == pytest.approx(0.03044 * 1.010, abs=3e-5)

    def test_kernel_fixed_bandwidth_csv(self, tmp_path):
        code, text = run_cli(
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5", "--h", "1.2"],
            tmp_path,
        )
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "estimator,n,kernel,value,method,std_error"
        assert row.split(",")[4] == "closed_form"

    @pytest.mark.parametrize("scale", [["--h", "1e-80"], ["--h", "1", "--sigma", "1e80"]])
    def test_kernel_underflowing_bandwidth(self, tmp_path, scale):
        # h / sigma = 1e-80: the parabolic MISE is its variance term 1.2 / (n h)
        # at the standard scale, divided by sigma
        code, text = run_cli(
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "10", *scale,
             "--format", "json"],
            tmp_path,
        )
        assert code == 0
        expected = 1.2e79 if scale[1] == "1e-80" else 0.12
        assert json.loads(text)["value"] == pytest.approx(expected, rel=1e-12)

    def test_mc_deterministic(self, tmp_path):
        args = [
            "mise", "--estimator", "kernel", "--kernel", "normal", "--n", "5",
            "--rule", "thumb", "--method", "mc", "--seed", "7",
            "--replicates", "400", "--eval-points", "3", "--format", "json",
        ]
        _, first = run_cli(args, tmp_path, "m1.json")
        _, second = run_cli(args, tmp_path, "m2.json")
        assert first == second
        obj = json.loads(first)
        assert obj["method"] == "monte_carlo"
        assert obj["std_error"] > 0

    def test_sigma_scaling(self, tmp_path):
        base = [
            "mise", "--estimator", "plugin", "--n", "8", "--format", "json",
        ]
        _, at_one = run_cli(base, tmp_path, "s1.json")
        _, at_two = run_cli([*base, "--sigma", "2.0"], tmp_path, "s2.json")
        v1 = json.loads(at_one)["value"]
        v2 = json.loads(at_two)["value"]
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            ["mise", "--estimator", "kernel", "--n", "5"],
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5"],
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5",
             "--h", "0.5", "--rule", "thumb"],
            ["mise", "--estimator", "plugin", "--n", "5", "--kernel", "normal"],
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5",
             "--h", "0.5", "--method", "mc"],
            # the quadrature tolerance is fixed: --tol is no option
            ["table", "--n", "5", "--tol", "1e-9"],
        ],
    )
    def test_invalid_combinations(self, args):
        assert main(args) == 2

    @pytest.mark.parametrize("estimator", ["plugin", "umvu"])
    def test_exact_only_estimators_reject_monte_carlo(self, estimator, capsys):
        assert main(["mise", "--estimator", estimator, "--n", "10", "--method", "mc"]) == 2
        assert capsys.readouterr().err == (
            f"normrisk: usage error: the {estimator} estimator is exact-only; --method mc needs a kernel\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["mise", "--estimator", "plugin", "--n", "5", "--sigma", "inf"],
            ["mise", "--estimator", "kernel", "--kernel", "normal", "--n", "5",
             "--rule", "thumb", "--method", "mc", "--seed", "-1"],
            ["mise", "--estimator", "kernel", "--kernel", "normal", "--n", "5",
             "--rule", "thumb", "--method", "mc", "--seed", str(2**128)],
            ["skew-mise", "--sigma", "inf"],
            ["figure", "--which", "1", "--x-max", "inf"],
            ["figure", "--which", "1", "--x-min", "nan"],
            ["figure", "--which", "1", "--x-step", "nan"],
            ["mise", "--estimator", "kernel", "--kernel", "normal", "--n", "5", "--h", "inf"],
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5", "--h", "inf"],
            ["mse-curve", "--estimator", "kernel", "--kernel", "normal", "--n", "5", "--h", "inf"],
            ["mse-curve", "--estimator", "kernel", "--kernel", "epan", "--n", "5", "--h", "inf"],
        ],
    )
    def test_out_of_domain_inputs(self, args, capsys):
        assert main(args) == 2
        assert "normrisk: usage error" in capsys.readouterr().err

    def test_negative_infinite_grid_bound_is_not_finite(self, capsys):
        # read as a value, not an option, and then rejected
        assert main(["figure", "--which", "1", "--x-min", "-inf"]) == 2
        assert "--x-min, --x-max and --x-step must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text,value", [("-1e0", "-1.0"), ("-2.5e-1", "-0.25")])
    def test_negative_exponent_grid_bound_is_a_value(self, text, value, capsys):
        # argparse would take -1e0 for an option and exit with "expected one argument"
        grid = ["figure", "--which", "1", "--n", "5", "--x-step", "0.25"]
        assert main([*grid, "--x-min", text]) == 0
        spaced = capsys.readouterr().out
        assert main([*grid, f"--x-min={value}"]) == 0
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--n", "5"],
            ["figure", "--which", "1"],
            ["mise", "--estimator", "umvu", "--n", "5"],
            ["mise", "--estimator", "kernel", "--kernel", "normal", "--n", "5", "--h", "0.5"],
            ["mse-curve", "--estimator", "kernel", "--kernel", "epan", "--n", "5", "--h", "1.0"],
            ["bandwidth-constants"],
            ["lognormal"],
            ["skew-mise"],
        ],
    )
    def test_tolerance_checked_at_parse_time(self, args, capsys):
        # each number has one fixed tolerance: every subcommand, whether or
        # not it runs a quadrature, rejects --tol as an unknown option
        assert main([*args, "--tol=1e-9"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_tight_tolerance_on_the_nested_route(self, capsys):
        # the parabolic real MISE takes the nested route at the real MISE's
        # own 1e-11, a digit below the package default
        args = ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "10", "--rule", "thumb"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1] == "kernel,10,epan,0.03042866464,quadrature,"

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def failing(*args):
            raise QuadratureError("no convergence after 4096 subdivisions")

        monkeypatch.setattr(cli, "exact_mise_plugin", failing)
        assert main(["mise", "--estimator", "plugin", "--n", "5"]) == 3
        assert "normrisk: numerical failure: no convergence" in capsys.readouterr().err

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        # a directory cannot be opened as the output file
        assert main(["bandwidth-constants", "--n", "5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"normrisk: usage error: cannot write --out {tmp_path}: ")
        assert "Traceback" not in err

    def test_out_is_opened_before_computing(self, tmp_path, monkeypatch, capsys):
        def comparison_row(*args):
            raise AssertionError("a row was computed before --out was opened")

        monkeypatch.setattr(cli, "comparison_row", comparison_row)
        assert main(["table", "--n", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"normrisk: usage error: cannot write --out {tmp_path}: ")


class TestCurveCommands:
    def test_figure_one_structure(self, tmp_path):
        code, text = run_cli(
            ["figure", "--which", "1", "--n", "8", "--x-step", "0.5"], tmp_path
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "estimator,x,bias,sd,rmse"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"parametric_plugin", "epan_kernel"}
        # 13 grid points per curve on [-3, 3] at step 0.5
        assert len(lines) == 1 + 2 * 13
        for line in lines[1:]:
            _, x, bias, sd, rmse = line.split(",")
            assert float(rmse) ** 2 == pytest.approx(
                float(bias) ** 2 + float(sd) ** 2, abs=1e-12
            )

    def test_figure_two_labels(self, tmp_path):
        code, text = run_cli(
            ["figure", "--which", "2", "--n", "6", "--x-step", "1.0", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        labels = {json.loads(line)["estimator"] for line in text.strip().splitlines()}
        assert labels == {"normal_kernel", "epan_kernel"}

    def test_mse_curve_kernel(self, tmp_path):
        code, text = run_cli(
            [
                "mse-curve", "--estimator", "kernel", "--kernel", "epan",
                "--n", "14", "--rule", "thumb", "--x-step", "1.5",
            ],
            tmp_path,
        )
        assert code == 0
        assert len(text.strip().splitlines()) == 1 + 5

    @pytest.mark.parametrize("kernel", ["normal", "epan"])
    def test_mse_curve_h_is_the_bandwidth(self, kernel, tmp_path):
        # --h is absolute, as in `mise`: it is not rescaled by --sigma
        code, text = run_cli(
            ["mse-curve", "--estimator", "kernel", "--kernel", kernel, "--n", "7", "--h", "0.6",
             "--sigma", "1.5", "--x-step", "1.5", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        for line in text.splitlines():
            obj = json.loads(line)
            want = exact_mse_kernel(KERNELS[kernel], obj["x"], NormalParams(0.0, 1.5), 7, 0.6)
            assert obj["bias"] == want.bias and obj["sd"] == want.sd

    def test_mse_curve_tail_against_mpmath(self, tmp_path):
        # the closed-form moments cancelled out here: sd was 49% off at
        # x = 6, and at x = 6.5 it read 0 with rmse nan
        n, h = 10, 0.25
        code, text = run_cli(
            ["mse-curve", "--estimator", "kernel", "--kernel", "epan", "--h", str(h), "--n", str(n),
             "--x-min", "5", "--x-max", "6.5", "--x-step", "0.5", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert [row["x"] for row in rows] == [5.0, 5.5, 6.0, 6.5]
        for row in rows:
            assert all(math.isfinite(row[key]) for key in ("bias", "sd", "rmse"))
            with mpmath.workdps(40):
                def moment(power):
                    return mpmath.quad(
                        lambda u: (1.5 * (1 - 4 * u * u)) ** power * mpmath.npdf(row["x"] + h * u),
                        [-0.5, 0.5],
                    )

                sd = float(mpmath.sqrt((moment(2) / h - moment(1) ** 2) / n))
            assert row["sd"] == pytest.approx(sd, rel=1e-12, abs=0)

    def test_normal_kernel_curve_at_a_wide_bandwidth(self, tmp_path):
        # a0/h - e0^2 cancelled here, and sd read 0 at x = 0; the values are
        # 60-digit mpmath's
        code, text = run_cli(
            ["mse-curve", "--estimator", "kernel", "--kernel", "normal", "--n", "10", "--h", "1e4",
             "--x-min", "-3", "--x-max", "3", "--x-step", "3", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        sds = [json.loads(line)["sd"] for line in text.splitlines()]
        assert sds == pytest.approx([3.8884081107986e-13, 8.920620446954e-14, 3.8884081107986e-13], rel=1e-12)

    def test_normal_kernel_curve_at_a_huge_bandwidth(self, capsys):
        # the clip of y at 1e150 printed bias 3.989e-153, phi(1e150/h)/h, at
        # both x = 5e151 and 1e152; the closed form phi(x/s)/s - phi(x), with
        # s^2 = 1 + h^2, is 30-digit mpmath's
        argv = ["mse-curve", "--estimator", "kernel", "--kernel", "normal", "--n", "10", "--h", "1e152",
                "--x-min", "0", "--x-max", "1e152", "--x-step", "5e151", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["x"] for row in rows] == [0.0, 5e151, 1e152]
        with mpmath.workdps(30):
            s = mpmath.sqrt(1 + mpmath.mpf(1e152) ** 2)
            want = [float(mpmath.npdf(row["x"] / s) / s - mpmath.npdf(row["x"])) for row in rows]
        assert [row["bias"] for row in rows] == pytest.approx(want, rel=1e-15, abs=0)
        assert want[1:] == pytest.approx([3.5206532676e-153, 2.4197072452e-153], rel=1e-10)

    def test_plugin_curve_at_a_huge_sample_size(self, capsys):
        # at sigma = 1e-160 every x but 0 is at the clip of y, 1e150, where
        # x x n overflowed past n = 1.8e8: numpy warned, and under -W error
        # the command exited 1
        argv = ["mse-curve", "--estimator", "plugin", "--n", "1000000000", "--sigma", "1e-160", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["x"] for row in rows if row["rmse"] != 0.0] == [0.0]
        assert all(math.isfinite(row[key]) for row in rows for key in ("bias", "sd", "rmse"))

    def test_parabolic_curve_rejects_a_wide_bandwidth(self, capsys):
        argv = ["mse-curve", "--estimator", "kernel", "--kernel", "epan", "--n", "10"]
        assert main([*argv, "--h", "100"]) == 2
        assert "normrisk: usage error: the parabolic kernel's pointwise variance is defined up to h/sigma = 32" in (
            capsys.readouterr().err
        )
        assert main([*argv, "--h", "32", "--x-step", "3"]) == 0
        # --h is rescaled by --sigma, and the MISE has no such limit
        assert main([*argv, "--h", "100", "--sigma", "4", "--x-step", "3"]) == 0
        assert main(["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "10", "--h", "100"]) == 0

    @pytest.mark.parametrize("kernel", ["normal", "epan"])
    @pytest.mark.parametrize("command", ["mse-curve", "mise"])
    def test_subnormal_bandwidth_is_a_usage_error(self, command, kernel, capsys):
        # it passed --h's check, then mse-curve warned of an overflow and
        # blamed sigma, and mise printed inf with exit 0
        argv = [command, "--estimator", "kernel", "--kernel", kernel, "--n", "10", "--h", "5e-324"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("normrisk: usage error: h/sigma=5e-324 is too small")

    def test_mse_curve_plugin_rejects_kernel_flags(self):
        assert main(
            ["mse-curve", "--estimator", "plugin", "--n", "5", "--kernel", "epan"]
        ) == 2

    def test_bad_grid(self):
        assert main(["figure", "--which", "1", "--x-min", "2", "--x-max", "-2"]) == 2

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_step_must_be_positive(self, step, capsys):
        assert main(["figure", "--which", "1", "--x-step", step]) == 2
        assert capsys.readouterr().err == "normrisk: usage error: x-step must be positive\n"

    def test_figure_number_is_one_or_two(self):
        with pytest.raises(ValueError, match="figure number must be 1 or 2"):
            cli.figure_curves(3, 14, np.array([0.0, 1.0]))

    def test_grid_is_bounded_before_it_is_allocated(self, capsys):
        # a span of 2e308 exited 1 with a bare OverflowError, and a step of
        # 1e-300 exited 2 with numpy's "Maximum allowed size exceeded"
        for grid, message in (
            (["--x-min", "-1e308", "--x-max", "1e308"], "the x grid may hold at most 1000000 points"),
            (["--x-step", "1e-300"], "the x grid may hold at most 1000000 points"),
            (["--x-step", "5e-324"], "the x grid may hold at most 1000000 points"),
            # one point over the cap
            (["--x-min", "0", "--x-max", "1000000", "--x-step", "1"], "at most 1000000 points"),
        ):
            assert main(["figure", "--which", "1", *grid]) == 2
            assert message in capsys.readouterr().err
        at_cap = types.SimpleNamespace(x_min=0.0, x_max=999999.0, x_step=1.0)
        assert len(cli._x_grid(at_cap)) == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e200])
    def test_figure_at_extreme_sigma(self, which, sigma, capsys):
        # the scale identity: each field is the sigma = 1 value at x/sigma,
        # divided by sigma; sd read nan at 1e-160 and 0 at 1e200
        argv = ["figure", "--which", str(which), "--n", "3", "--sigma", str(sigma)]
        assert main([*argv, "--x-step", "0.5", "--format", "json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        xs = np.array([r["x"] for r in records[: len(records) // 2]])
        standard = cli.figure_curves(which, 3, xs / sigma, 1.0)
        points = [point for curve in standard for point in curve]
        assert len(points) == len(records)
        for record, point in zip(records, points):
            for key in ("bias", "sd", "rmse"):
                assert math.isfinite(record[key])
                assert record[key] == pytest.approx(point[key] / sigma, rel=1e-12, abs=0)
        assert any(record["sd"] > 0 for record in records)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e200])
    def test_kernel_sd_at_extreme_sigma(self, sigma):
        for kernel in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL):
            scaled = exact_mse_kernel(kernel, 0.0, NormalParams(0.0, sigma), 3, 0.8 * sigma)
            standard = exact_mse_kernel(kernel, 0.0, STD_NORMAL, 3, 0.8)
            assert scaled.bias == pytest.approx(standard.bias / sigma, rel=1e-12, abs=0)
            assert scaled.sd == pytest.approx(standard.sd / sigma, rel=1e-12, abs=0)

    def test_figure_rejects_an_overflowing_sigma(self, capsys):
        assert main(["figure", "--which", "1", "--n", "3", "--sigma", "1e-320"]) == 2
        assert "sigma=1e-320 is too small: the risk overflows a double" in capsys.readouterr().err


SIGMA_CORNERS = [1e-310, 1e-160, 1e-70, 1.0, 1e70, 1e160, 1e308]


def _at(sigma):
    """A point x and an estimand of scale sigma, its mean off 0, with (x - mu)/sigma = 0.3."""
    return 0.8 * sigma, NormalParams(0.5 * sigma, sigma)


def _real_mise_mc_at(kernel, sigma):
    """The Monte Carlo real MISE and its standard error at scale sigma, from 200 replicates."""
    report = real_mise_mc(rule_of_thumb(kernel, 10), _at(sigma)[1], 10, McConfig(200, 5, seed=1))
    return [report.value, report.std_error]


# every public function that takes sigma: name -> (its values at scale sigma,
# and the power of sigma that divides each of them at the standard scale)
LIBRARY_SCALE_CASES = {
    "exact_mse_plugin": (lambda s: exact_mse_plugin(*_at(s), 5), 1),
    **{
        f"exact_mse_kernel-{k.name}": (lambda s, k=k: exact_mse_kernel(k, *_at(s), 5, 0.7 * s), 1)
        for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
    },
    "asymptotic_mse_plugin": (lambda s: [asymptotic_mse_plugin(*_at(s), 10)], 2),
    "exact_mise_plugin": (lambda s: [exact_mise_plugin(_at(s)[1], 10).value], 1),
    "plugin_mise_column": (lambda s: plugin_mise_column(_at(s)[1], [3, 10]), 1),
    "exact_mise_umvu": (lambda s: [exact_mise_umvu(_at(s)[1], 10).value], 1),
    "asymptotic_mise_plugin": (lambda s: [asymptotic_mise_plugin(_at(s)[1], 10)], 1),
    **{
        f"mise_fixed_bandwidth-{k.name}": (
            lambda s, k=k: [mise_fixed_bandwidth(k, _at(s)[1], 10, 0.5 * s).value], 1
        )
        for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
    },
    # the bandwidth scales as sigma, the AMISE as 1/sigma
    **{
        f"asymptotic_kernel_risk-{k.name}": (
            lambda s, k=k: asymptotic_kernel_risk(k, _at(s)[1], 100), (-1, 1)
        )
        for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
    },
    "skew_normal_asymptotic_mise": (lambda s: [skew_normal_asymptotic_mise(s)], 1),
    # the rule h = a sigma_hat is scale-free; its risk and standard error scale as 1/sigma
    **{
        f"real_mise_exact-{k.name}": (
            lambda s, k=k: [real_mise_exact(rule_of_thumb(k, 10), _at(s)[1], 10).value], 1
        )
        for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
    },
    **{
        f"real_mise_mc-{k.name}": (lambda s, k=k: _real_mise_mc_at(k, s), 1)
        for k in (NORMAL_KERNEL, EPANECHNIKOV_KERNEL)
    },
}


def _grid(sigma):
    return ["--x-min", repr(-0.5 * sigma), "--x-max", repr(0.5 * sigma), "--x-step", repr(0.25 * sigma)]


_KERNEL_MISE = ["mise", "--estimator", "kernel", "--n", "10"]
_MC = ["--method", "mc", "--replicates", "200", "--eval-points", "5"]

# every command that takes --sigma: name -> its argv at scale sigma, with
# the x grid and any --h in units of sigma
CLI_SCALE_CASES = {
    **{f"figure-{w}": (lambda s, w=w: ["figure", "--which", w, "--n", "5", *_grid(s)]) for w in "12"},
    "mse-curve-plugin": lambda s: ["mse-curve", "--estimator", "plugin", "--n", "5", *_grid(s)],
    **{
        f"mse-curve-{k}-{how}": (
            lambda s, k=k, how=how: [
                "mse-curve", "--estimator", "kernel", "--kernel", k, "--n", "5", *_grid(s),
                *(["--rule", "thumb"] if how == "thumb" else ["--h", repr(0.6 * s)]),
            ]
        )
        for k in KERNELS for how in ("thumb", "h")
    },
    "mise-plugin": lambda s: ["mise", "--estimator", "plugin", "--n", "10"],
    "mise-umvu": lambda s: ["mise", "--estimator", "umvu", "--n", "10"],
    **{
        f"mise-{k}-{how}": (
            lambda s, k=k, how=how: [
                *_KERNEL_MISE, "--kernel", k,
                *{"thumb": ["--rule", "thumb"], "mc": ["--rule", "thumb", *_MC], "h": ["--h", repr(0.5 * s)]}[how],
            ]
        )
        for k in KERNELS for how in ("thumb", "mc", "h")
    },
    "skew-mise": lambda s: ["skew-mise"],
}

# the power of sigma that divides each output field at the standard scale
_FIELD_POWERS = {
    "bias": 1, "sd": 1, "rmse": 1, "value": 1, "std_error": 1, "n_mise_limit": 1,
    "ratio_to_normal_family": 0,
}


#: the spacing of the subnormal doubles
_SUBNORMAL_STEP = mpmath.mpf(2) ** -1074


def _check_scaled(reference, got, powers, sigma, pointwise):
    """got is the reference at sigma = 1 divided by sigma**power, to 1e-12,
    and a normal double or 0; a pointwise risk's far tail may go on below the
    normal doubles, within the subnormals' spacing of the scaled reference."""
    for want, value, power, tail in zip(reference, got, powers, pointwise):
        assert math.isfinite(value)
        assert tail or value == 0 or abs(value) >= sys.float_info.min, value
        scale = mpmath.mpf(sigma) ** power
        error = abs(mpmath.mpf(value) * scale - want)
        assert error <= 1e-12 * abs(want) + (_SUBNORMAL_STEP * scale if tail else 0), (value, want)


def _in_range(reference, powers, sigma):
    """Whether every reference value, divided by sigma**power, is well inside
    the normal doubles, so that a scale error is not allowed."""
    return all(
        abs(math.log10(abs(want)) - power * math.log10(sigma)) < 300
        for want, power in zip(reference, powers)
        if want != 0
    )


class TestScaleCorners:
    """At every sigma corner, each risk is the sigma = 1 risk rescaled, to
    1e-12, or the package's ValueError (exit 2) without a warning; inside
    the double range it must be the first.  A pointwise risk raises only
    where it overflows: its far tail goes to its correct limit, 0."""

    @pytest.mark.parametrize("sigma", SIGMA_CORNERS)
    @pytest.mark.parametrize("case", list(LIBRARY_SCALE_CASES))
    def test_library(self, case, sigma):
        compute, power = LIBRARY_SCALE_CASES[case]
        reference = [float(v) for v in compute(1.0)]
        powers = power if isinstance(power, tuple) else (power,) * len(reference)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [float(v) for v in compute(sigma)]
        except ValueError as exc:
            assert f"sigma={sigma!r} is too" in str(exc)
            assert not _in_range(reference, powers, sigma)
            return
        pointwise = [case.startswith(("exact_mse", "asymptotic_mse"))] * len(reference)
        _check_scaled(reference, got, powers, sigma, pointwise)

    @pytest.mark.parametrize("sigma", SIGMA_CORNERS)
    @pytest.mark.parametrize("case", list(CLI_SCALE_CASES))
    def test_command(self, case, sigma, capsys):
        argv = CLI_SCALE_CASES[case]
        assert main([*argv(1.0), "--format", "json"]) == 0
        reference = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv(sigma), "--sigma", repr(sigma), "--format", "json"])
        out, err = capsys.readouterr()
        keys = [k for k in _FIELD_POWERS if reference[0].get(k) is not None]
        want = [record[k] for record in reference for k in keys]
        powers = [_FIELD_POWERS[k] for _ in reference for k in keys]
        if code == 2:
            assert out == ""
            assert err.startswith(f"normrisk: usage error: sigma={sigma!r} is too")
            assert not _in_range(want, powers, sigma)
            return
        assert code == 0, err
        got = [json.loads(line) for line in out.splitlines()]
        assert len(got) == len(reference)
        pointwise = [k in ("bias", "sd", "rmse") for _ in reference for k in keys]
        _check_scaled(want, [record[k] for record in got for k in keys], powers, sigma, pointwise)

    def test_figure_names_sigma_not_the_rule_bandwidth(self, capsys):
        # the parabolic rule's bandwidth, m sigma, overflows at sigma = 1e308;
        # the error is about sigma, which the user gave
        assert main(["figure", "--which", "1", "--sigma", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err == "normrisk: usage error: sigma=1e+308 is too large: the bandwidth overflows a double\n"

    def test_a_far_tail_goes_to_zero(self, capsys):
        # at sigma = 2 the whole curve is the standard one at x/2 halved,
        # exactly, down to the tail, whose halving rounds among the subnormals
        argv = ["mse-curve", "--estimator", "kernel", "--kernel", "normal", "--n", "10", "--h", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--sigma", "2", "--x-min", "0", "--x-max", "120", "--format", "json"])
        assert code == 0, capsys.readouterr().err
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        xs = np.array([r["x"] for r in records])
        standard = exact_mse_kernel(NORMAL_KERNEL, xs / 2.0, STD_NORMAL, 10, 1.0)
        for key, field in zip(("bias", "sd", "rmse"), standard):
            got = np.array([r[key] for r in records])
            assert np.all(np.abs(got - field / 2.0) <= 2.0**-1075)
        assert any(0 < abs(r["bias"]) < sys.float_info.min for r in records)

    @pytest.mark.parametrize("command", [["mse-curve", "--estimator", "kernel"], ["mise", "--estimator", "kernel"]])
    @pytest.mark.parametrize(
        "h, sigma, message",
        [
            ("1e-300", "1e10", "h/sigma=1e-310 is too small: the {} overflows a double"),
            ("1e300", "1e-10", "h must be positive and finite, got inf"),
        ],
    )
    def test_a_bandwidth_out_of_range_is_named(self, command, h, sigma, message, capsys):
        # h/sigma leaves the double range: the bandwidth the user gave is at fault, not sigma
        argv = [*command, "--kernel", "epan", "--n", "10", "--h", h, "--sigma", sigma]
        assert main(argv) == 2
        quantity = "variance" if command[0] == "mse-curve" else "MISE"
        assert capsys.readouterr().err == f"normrisk: usage error: {message.format(quantity)}\n"


class TestOtherCommands:
    def test_bandwidth_constants(self, tmp_path):
        code, text = run_cli(["bandwidth-constants", "--n", "10"], tmp_path)
        assert code == 0
        header, row = text.strip().splitlines()
        assert header == "n,b_n,c_n"
        _, b, c = row.split(",")
        assert float(b) == pytest.approx(1.2021, abs=1e-4)
        assert float(c) == pytest.approx(5.0628, abs=1e-4)

    def test_lognormal_defaults(self, tmp_path):
        code, text = run_cli(["lognormal"], tmp_path)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "b,n0"
        got = {float(b): int(n0) for b, n0 in (line.split(",") for line in lines[1:])}
        assert got == {0.2: 312, 0.4: 87, 0.6: 45, 0.8: 31, 1.0: 25, 1.2: 22}

    @pytest.mark.parametrize("spreads", [["-1e0"], ["0.2", "-1e0"], ["-1e0", "0.2"]])
    def test_lognormal_negative_exponent_spread_is_a_value(self, spreads, capsys):
        # argparse alone takes -1e0 for an option: "unrecognized arguments"
        assert main(["lognormal", "--b", *spreads]) == 2
        assert "log-scale spreads must be positive, got -1.0" in capsys.readouterr().err

    def test_lognormal_repeated_list_flag_extends(self, tmp_path):
        code, text = run_cli(["lognormal", "--b", "0.2", "--b", "1e0"], tmp_path)
        assert code == 0
        assert text == "b,n0\n0.2,312\n1,25\n"

    def test_lognormal_large_spreads(self, capsys):
        # exp of the MSE leaves the double range from b = 13 on: the scan
        # compares logarithms, confirmed against 60-digit mpmath
        assert main(["lognormal", "--b", "13", "20", "100"]) == 0
        out, err = capsys.readouterr()
        assert out == "b,n0\n13,431\n20,1011\n100,25110\n"
        assert err == ""

    def test_lognormal_empty_list(self, tmp_path):
        code, text = run_cli(["lognormal", "--b"], tmp_path)
        assert code == 0
        assert text.strip() == "b,n0"

    def test_skew_mise(self, tmp_path):
        code, text = run_cli(["skew-mise", "--format", "json"], tmp_path)
        assert code == 0
        obj = json.loads(text)
        assert obj["n_mise_limit"] == pytest.approx(0.342, abs=2e-3)
        assert obj["ratio_to_normal_family"] == pytest.approx(1.386, abs=5e-3)

    def test_stdout_default(self, capsys):
        assert main(["bandwidth-constants", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,b_n,c_n")


def _table_records(*ns):
    # the rows of one table, given its plug-in column as `normrisk table` does
    benches = plugin_mise_column(STD_NORMAL, ns)
    records = [dataclasses.asdict(cli.comparison_row(n, b)) for n, b in zip(ns, benches)]
    for record in records:
        if math.isinf(record["umvu_ratio"]):
            record.update(umvu_ratio=None, umvu_ratio_infinite=True)
    return records


# Stdout of each command, CSV then JSON.  Only outputs printed far
# coarser than the 1e-10 quadrature tolerance are pinned digit for digit;
# JSON prints full precision, so where it carries quadrature digits the
# golden value is a function giving the records, whose floats it must equal.
GOLDEN = {
    ("table", "--n", "3", "4"): (
        "n,plugin_mise,umvu_ratio,b_n,normal_ratio1,normal_ratio2,c_n,epan_ratio1,epan_ratio2\n"
        "3,0.23234,inf,1.2871,0.2080,0.6993,5.2821,0.2088,0.7273\n"
        "4,0.11830,1.5095,1.2628,0.3498,0.7271,5.2177,0.3485,0.7474\n",
        lambda: _table_records(3, 4),
    ),
    ("bandwidth-constants", "--n", "2", "10", "1000"): (
        "n,b_n,c_n\n2,1.326978,5.391587\n10,1.202079,5.062829\n1000,1.084210,4.761696\n",
        lambda: [
            {"n": n, "b_n": optimal_bandwidth_constant(NORMAL_KERNEL, n),
             "c_n": optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, n)}
            for n in (2, 10, 1000)
        ],
    ),
    ("lognormal", "--b", "0.2", "1.0"): (
        "b,n0\n0.2,312\n1,25\n",
        '{"b": 0.2, "n0": 312}\n{"b": 1.0, "n0": 25}\n',
    ),
    ("skew-mise",): (
        "sigma,n_mise_limit,ratio_to_normal_family\n1,0.342101,1.385961\n",
        lambda: [
            {"sigma": 1.0, "n_mise_limit": skew_normal_asymptotic_mise(1.0),
             "ratio_to_normal_family": skew_normal_asymptotic_mise(1.0) / PLUGIN_AMISE_CONSTANT}
        ],
    ),
    ("mise", "--estimator", "umvu", "--n", "3"): (
        "estimator,n,value,method,std_error\numvu,3,inf,closed_form,\n",
        '{"estimator": "umvu", "n": 3, "value": null, "infinite": true, "method": "closed_form", '
        '"std_error": null}\n',
    ),
}


# Full-precision JSON of `mise --estimator kernel --rule thumb --method mc --seed 7`.
# The blocked replicate loop reproduced the loop that drew and scored every
# replicate on its own bit for bit, std_error included; the values moved in
# their last digits only when the bandwidth constants became exact roots of
# the MISE's slope.  The 1001 replicates at n = 50 and 3 evaluation points
# end in a partial block.
MC_GOLDEN = {
    ("normal", "10"): (
        '{"estimator": "kernel", "n": 10, "kernel": "normal", "value": 0.0310071136710789, "infinite": false, '
        '"method": "monte_carlo", "std_error": 0.00033541536596070265}\n'
    ),
    ("normal", "50"): (
        '{"estimator": "kernel", "n": 50, "kernel": "normal", "value": 0.009254185957869449, "infinite": false, '
        '"method": "monte_carlo", "std_error": 7.826873174509269e-05}\n'
    ),
    ("epan", "10"): (
        '{"estimator": "kernel", "n": 10, "kernel": "epan", "value": 0.030648527418453888, "infinite": false, '
        '"method": "monte_carlo", "std_error": 0.0003382606317950383}\n'
    ),
    ("epan", "50"): (
        '{"estimator": "kernel", "n": 50, "kernel": "epan", "value": 0.008945143973774558, "infinite": false, '
        '"method": "monte_carlo", "std_error": 7.765167081442035e-05}\n'
    ),
    ("normal", "50", "--replicates", "1001", "--eval-points", "3"): (
        '{"estimator": "kernel", "n": 50, "kernel": "normal", "value": 0.009420857417885897, "infinite": false, '
        '"method": "monte_carlo", "std_error": 0.00033087377274497443}\n'
    ),
    ("epan", "50", "--replicates", "1001", "--eval-points", "3"): (
        '{"estimator": "kernel", "n": 50, "kernel": "epan", "value": 0.009132151570160984, "infinite": false, '
        '"method": "monte_carlo", "std_error": 0.00032227029231414965}\n'
    ),
    ("normal", "10", "--replicates", "1"): (
        '{"estimator": "kernel", "n": 10, "kernel": "normal", "value": 0.006519409904344108, "infinite": false, '
        '"method": "monte_carlo", "std_error": null}\n'
    ),
}


class TestEmitter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", sorted(GOLDEN))
    def test_golden_bytes(self, args, fmt, capsys):
        assert main([*args, "--format", fmt]) == 0
        out, want = capsys.readouterr().out, GOLDEN[args][fmt == "json"]
        if callable(want):
            assert [json.loads(line) for line in out.splitlines()] == want()
        else:
            assert out == want

    @pytest.mark.parametrize("case", sorted(MC_GOLDEN))
    def test_monte_carlo_golden_bytes(self, case, capsys):
        kernel, n, *extra = case
        args = ["mise", "--estimator", "kernel", "--kernel", kernel, "--n", n, "--rule", "thumb",
                "--method", "mc", "--seed", "7", *extra, "--format", "json"]
        assert main(args) == 0
        assert capsys.readouterr().out == MC_GOLDEN[case]

    @pytest.mark.parametrize(
        "args,kernel",
        [
            (["--estimator", "kernel", "--kernel", "epan", "--n", "5", "--h", "1.2"], True),
            (["--estimator", "plugin", "--n", "6"], False),
        ],
    )
    def test_mise_layout(self, args, kernel, tmp_path):
        _, csv_text = run_cli(["mise", *args], tmp_path, "m.csv")
        header, row = csv_text.splitlines()
        columns = ["estimator", "n", *(["kernel"] if kernel else []), "value", "method", "std_error"]
        assert header.split(",") == columns
        # exact methods have no standard error: an empty last cell
        assert row.endswith(",")
        _, json_text = run_cli(["mise", *args, "--format", "json"], tmp_path, "m.json")
        obj = json.loads(json_text)
        keys = ["estimator", "n", *(["kernel"] if kernel else []), "value", "infinite", "method", "std_error"]
        assert list(obj) == keys
        assert obj["std_error"] is None and obj["infinite"] is False
        # a general-format column keeps full precision in JSON
        assert float(row.split(",")[len(columns) - 3]) == pytest.approx(obj["value"], rel=1e-9)

    def test_curve_layout(self, tmp_path):
        args = ["mse-curve", "--estimator", "kernel", "--kernel", "normal", "--n", "7",
                "--h", "0.6", "--x-step", "1.5"]
        _, csv_text = run_cli(args, tmp_path, "c.csv")
        _, json_text = run_cli([*args, "--format", "json"], tmp_path, "c.json")
        csv_lines = csv_text.splitlines()
        objs = [json.loads(line) for line in json_text.splitlines()]
        assert csv_lines[0] == "estimator,x,bias,sd,rmse"
        assert len(csv_lines) == 1 + len(objs) == 1 + 5
        for line, obj in zip(csv_lines[1:], objs):
            assert list(obj) == ["estimator", "x", "bias", "sd", "rmse"]
            cells = line.split(",")
            assert cells[0] == obj["estimator"] == "normal_kernel"
            assert cells[1] == format(obj["x"], ".6g")
            assert cells[2:] == [format(obj[k], ".12g") for k in ("bias", "sd", "rmse")]

    def test_infinite_std_error_is_null(self, tmp_path):
        # one replicate has no spread estimate: std_error is inf, which has no flag
        # of its own and prints as null in JSON, like a missing standard error
        args = ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5", "--rule", "thumb",
                "--method", "mc", "--seed", "3", "--replicates", "1", "--eval-points", "3"]
        _, csv_text = run_cli(args, tmp_path, "m.csv")
        assert csv_text.splitlines()[1].endswith(",monte_carlo,inf")
        _, json_text = run_cli([*args, "--format", "json"], tmp_path, "m.json")
        obj = json.loads(json_text)
        assert obj["std_error"] is None and obj["infinite"] is False


# one argv per subcommand that sets most of its flags
SUBCOMMAND_ARGS = {
    "table": ["--n", "3", "10", "--format", "json"],
    "figure": ["--which", "2", "--n", "20", "--sigma", "2", "--x-min", "-1e0", "--x-step", "0.5"],
    "mise": ["--estimator", "kernel", "--kernel", "epan", "--n", "10", "--rule", "thumb",
             "--method", "mc", "--seed", "3", "--replicates", "50", "--eval-points", "4"],
    "mse-curve": ["--estimator", "kernel", "--kernel", "normal", "--n", "10", "--h", "0.3",
                  "--x-max", "2", "--out", "curve.csv"],
    "bandwidth-constants": ["--n", "2", "5"],
    "lognormal": ["--b", "0.2", "-1e0", "--b", "3"],
    "skew-mise": ["--sigma", "0.5", "--format", "json"],
}


class TestParsers:
    """A named subcommand is parsed by its own parser alone; the whole tree
    serves the rest, and both define each subcommand the same way."""

    def test_every_subcommand_has_a_case(self):
        assert list(SUBCOMMAND_ARGS) == list(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("name", list(SUBCOMMAND_ARGS))
    def test_single_parser_matches_the_tree(self, name, capsys):
        argv = cli._attach_float_values([name, *SUBCOMMAND_ARGS[name]])
        whole = vars(cli.build_parser().parse_args(argv))
        assert whole.pop("command") == name
        assert vars(cli._subcommand_parser(name).parse_args(argv[1:])) == whole
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([name, "--help"])
        tree_help = capsys.readouterr().out
        assert main([name, "--help"]) == 0
        assert capsys.readouterr().out == tree_help

    @pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["nope", "--n", "3"]])
    def test_whole_tree_without_a_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        expected = (exc.value.code, *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected
        assert expected[0] == (0 if argv == ["--help"] else 2)
        assert "usage: normrisk [-h]" in expected[1] + expected[2]

    def test_unknown_flag_prints_the_subcommand_usage(self, capsys):
        assert main(["table", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: normrisk table ")
        assert "normrisk table: error: unrecognized arguments: --bogus" in err


def run_probe(probe):
    # a fresh interpreter, so that no module this test run has loaded counts
    src = os.path.dirname(os.path.dirname(normrisk.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


#: numpy.random, and OpenSSL's _hashlib through secrets, load on the first draw only
DRAW_MODULES = ("numpy.random", "_hashlib")


def test_import_loads_no_scipy_nor_numpy_random():
    # scipy is needed by the tests only, and numpy.random by the Monte Carlo alone
    run_probe(
        "import sys, normrisk.cli\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy'], 'scipy imported'\n"
        f"assert not [m for m in {DRAW_MODULES!r} if m in sys.modules], 'numpy.random imported'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "3", "4"],
        ["figure", "--which", "1", "--n", "3"],
        ["mse-curve", "--estimator", "plugin", "--n", "10"],
        ["bandwidth-constants", "--n", "10"],
        ["lognormal", "--b", "0.2"],
        ["skew-mise"],
        ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "10", "--rule", "thumb"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_that_draw_nothing_leave_numpy_random_unloaded(argv):
    # in a fresh interpreter: the in-process tests cannot see this, as
    # tests/substreams.py imports numpy.random
    run_probe(
        "import sys\n"
        "from normrisk.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"assert not [m for m in {DRAW_MODULES!r} if m in sys.modules], 'numpy.random imported'\n"
    )


def test_monte_carlo_loads_numpy_random_on_its_first_draw():
    argv = ["mise", "--estimator", "kernel", "--kernel", "normal", "--n", "10", "--rule", "thumb",
            "--method", "mc", "--seed", "7", "--format", "json"]
    out = run_probe(
        "import sys\n"
        "from normrisk.cli import main\n"
        "assert 'numpy.random' not in sys.modules\n"
        f"assert main({argv!r}) == 0\n"
        f"assert all(m in sys.modules for m in {DRAW_MODULES!r}), 'numpy.random not imported'\n"
    )
    assert out == MC_GOLDEN[("normal", "10")]


def test_import_loads_no_numpy_polynomial():
    # both Gauss rules are stored, so nothing builds one with numpy.polynomial
    run_probe(
        "import sys, numpy\n"
        "import normrisk.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']]\n"
        "assert not loaded, loaded\n"
    )


def test_library_import_loads_no_cli():
    run_probe(
        "import sys, normrisk\n"
        "assert 'normrisk.cli' not in sys.modules, 'normrisk.cli imported'\n"
        "assert 'argparse' not in sys.modules, 'argparse imported'\n"
    )


def test_package_root_exports_the_documented_api():
    # the README's Library section lists exactly normrisk.__all__, and the
    # package root has no other public name besides its submodules
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n")[1].split("\n## ")[0]
    bullets = [block for block in library.split("\n\n") if block.startswith("* ")]
    listed = re.findall(r"`(\w+)`", "".join(bullets))
    assert sorted(listed) == sorted(normrisk.__all__)
    assert len(set(listed)) == len(listed)
    for name in normrisk.__all__:
        assert getattr(normrisk, name) is not None
    public = {
        name for name, value in vars(normrisk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(normrisk.__all__)


def _defined_names(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_public_name_has_a_caller_or_is_exported():
    # a public name that no code of the package uses outside its own
    # definition, and that the package root does not export, serves tests
    # alone and belongs in a test helper such as tests/estimators.py
    src = os.path.dirname(normrisk.__file__)
    trees = {}
    for filename in sorted(os.listdir(src)):
        if filename.endswith(".py"):
            with open(os.path.join(src, filename), encoding="utf-8") as fh:
                trees[filename[:-3]] = ast.parse(fh.read())
    unused = []
    for module in ("numerics", "parametric", "kernels", "bandwidth", "case_studies", "cli"):
        for definition in trees[module].body:
            for name in _defined_names(definition):
                if name.startswith("_") or name in normrisk.__all__:
                    continue
                used = any(
                    isinstance(ref, ast.Name) and ref.id == name
                    or isinstance(ref, ast.Attribute) and ref.attr == name
                    for tree in trees.values()
                    for statement in tree.body
                    if statement is not definition
                    for ref in ast.walk(statement)
                )
                if not used:
                    unused.append(f"{module}.{name}")
    assert unused == []
