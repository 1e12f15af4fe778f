"""Command-line interface: formats, determinism, exit codes, golden values."""

import json
import math
import os
import re
import subprocess
import sys
import types

import pytest

import normrisk
from normrisk import cli
from normrisk.cli import main
from normrisk.kernels import KERNELS, exact_mse_kernel
from normrisk.numerics import DEFAULT_QUADRATURE, QuadratureConfig
from normrisk.parametric import NormalParams
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

    def test_tol_reaches_every_quadrature_term(self, monkeypatch, capsys):
        # the plug-in term and both real-MISE terms: with --tol all three
        # take it, without it each keeps its own default (None: 1e-11)
        seen = []

        def recording(fn):
            def wrapper(*args):
                seen.append(args[2] if len(args) > 2 else None)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(cli, "exact_mise_plugin", recording(cli.exact_mise_plugin))
        monkeypatch.setattr(cli, "real_mise_exact", recording(cli.real_mise_exact))
        assert main(["table", "--n", "5", "--tol", "1e-9"]) == 0
        assert seen == [QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=4096)] * 3
        seen.clear()
        assert main(["table", "--n", "5"]) == 0
        assert seen == [DEFAULT_QUADRATURE, None, None]

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
            # a zero tolerance is rejected on the rule path as on every other
            ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "5",
             "--rule", "thumb", "--tol", "0"],
        ],
    )
    def test_invalid_combinations(self, args):
        assert main(args) == 2

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

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf", "x"])
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
    def test_tolerance_checked_at_parse_time(self, args, tol, capsys):
        # on every subcommand, whether or not it runs a quadrature
        assert main([*args, f"--tol={tol}"]) == 2
        assert "--tol: must be a positive finite number" in capsys.readouterr().err

    def test_tight_tolerance_on_the_nested_route(self, capsys):
        # the ancillary normalization check once ran at a tenth of --tol,
        # below what double precision can resolve, and failed with exit 3
        args = ["mise", "--estimator", "kernel", "--kernel", "epan", "--n", "10",
                "--rule", "thumb", "--tol", "1e-13"]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1] == "kernel,10,epan,0.03042866464,quadrature,"

    def test_numerical_failure_exit_code(self, capsys):
        # a tolerance below machine resolution cannot converge
        code = main(["mise", "--estimator", "plugin", "--n", "5", "--tol", "1e-300"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

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

    def test_mse_curve_plugin_rejects_kernel_flags(self):
        assert main(
            ["mse-curve", "--estimator", "plugin", "--n", "5", "--kernel", "epan"]
        ) == 2

    def test_bad_grid(self):
        assert main(["figure", "--which", "1", "--x-min", "2", "--x-max", "-2"]) == 2


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


# Stdout bytes of the parent emitters.  Only outputs printed far coarser
# than the 1e-10 quadrature tolerance are pinned digit for digit.
GOLDEN = {
    ("table", "--n", "3", "4"): (
        "n,plugin_mise,umvu_ratio,b_n,normal_ratio1,normal_ratio2,c_n,epan_ratio1,epan_ratio2\n"
        "3,0.23234,inf,1.2871,0.2080,0.6993,5.2821,0.2088,0.7273\n"
        "4,0.11830,1.5095,1.2628,0.3498,0.7271,5.2177,0.3485,0.7474\n",
        '{"n": 3, "plugin_mise": 0.23234, "umvu_ratio": null, "b_n": 1.2871, "normal_ratio1": 0.208, '
        '"normal_ratio2": 0.6993, "c_n": 5.2821, "epan_ratio1": 0.2088, "epan_ratio2": 0.7273, '
        '"umvu_ratio_infinite": true}\n'
        '{"n": 4, "plugin_mise": 0.1183, "umvu_ratio": 1.5095, "b_n": 1.2628, "normal_ratio1": 0.3498, '
        '"normal_ratio2": 0.7271, "c_n": 5.2177, "epan_ratio1": 0.3485, "epan_ratio2": 0.7474}\n',
    ),
    ("bandwidth-constants", "--n", "2", "10", "1000"): (
        "n,b_n,c_n\n2,1.326978,5.391587\n10,1.202079,5.062829\n1000,1.084210,4.761696\n",
        '{"n": 2, "b_n": 1.326978, "c_n": 5.391587}\n'
        '{"n": 10, "b_n": 1.202079, "c_n": 5.062829}\n'
        '{"n": 1000, "b_n": 1.08421, "c_n": 4.761696}\n',
    ),
    ("lognormal", "--b", "0.2", "1.0"): (
        "b,n0\n0.2,312\n1,25\n",
        '{"b": 0.2, "n0": 312}\n{"b": 1.0, "n0": 25}\n',
    ),
    ("skew-mise",): (
        "sigma,n_mise_limit,ratio_to_normal_family\n1,0.342101,1.385961\n",
        '{"sigma": 1.0, "n_mise_limit": 0.342101, "ratio_to_normal_family": 1.385961}\n',
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
        assert capsys.readouterr().out == GOLDEN[args][fmt == "json"]

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


def run_probe(probe):
    # a fresh interpreter, so that no module this test run has loaded counts
    src = os.path.dirname(os.path.dirname(normrisk.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_import_loads_no_scipy_and_loads_numpy_random():
    # scipy is needed by the tests only; numpy loads numpy.random lazily, and
    # the package imports it up front so that no command pays for it mid-run
    run_probe(
        "import sys, normrisk.cli\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] == 'scipy'], 'scipy imported'\n"
        "assert 'numpy.random' in sys.modules, 'numpy.random not imported'\n"
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
