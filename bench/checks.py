"""Correctness checkers for the outputs of each workload's commands.

Every checker takes the stdout of one CLI command and returns one entry
per operation it checks: None when the operation is correct, otherwise a
message saying what is wrong.  An operation is one checked record: a
table row, a published study value, a curve, or a Monte Carlo estimate.
The number of entries is fixed per command, so a command that fails or
prints too little still counts every operation it should have produced.

References are the published values (at the acceptance tolerances, with
two independently verified corrections), the 40-digit mpmath oracle in
oracle.json, and properties the methods must have.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

#: the published comparison table, as printed (digits matter: they give the
#: rounding of each value); umvu_ratio is infinite at n = 3
PUBLISHED_TABLE_TEXT = """\
n,plugin_mise,umvu_ratio,b_n,normal_ratio1,normal_ratio2,c_n,epan_ratio1,epan_ratio2
3,0.23230,inf,1.2871,0.208,0.699,5.2822,0.209,0.727
4,0.11829,1.5095,1.2628,0.350,0.727,5.2177,0.349,0.747
5,0.07969,1.2110,1.2458,0.459,0.773,5.1737,0.455,0.786
6,0.06016,1.1223,1.2331,0.548,0.824,5.1411,0.541,0.830
7,0.04835,1.0822,1.2230,0.623,0.874,5.1156,0.614,0.874
8,0.04042,1.0602,1.2148,0.689,0.922,5.0949,0.677,0.918
9,0.03472,1.0466,1.2080,0.748,0.967,5.0776,0.733,0.960
10,0.03044,1.0375,1.2021,0.801,1.010,5.0628,0.784,0.9997
11,0.02710,1.0312,1.1970,0.849,1.050,5.0500,0.830,1.037
12,0.02441,1.0264,1.1925,0.894,1.088,5.0388,0.872,1.072
13,0.02222,1.0229,1.1885,0.935,1.124,5.0288,0.911,1.106
14,0.02038,1.0201,1.1849,0.973,1.157,5.0198,0.948,1.137
15,0.01883,1.0178,1.1816,1.009,1.189,5.0117,0.982,1.167
16,0.01749,1.0160,1.1786,1.043,1.220,5.0043,1.015,1.195
17,0.01633,1.0145,1.1759,1.075,1.249,4.9975,1.045,1.223
18,0.01532,1.0132,1.1734,1.106,1.276,4.9913,1.074,1.248
19,0.01443,1.0121,1.1711,1.135,1.303,4.9855,1.102,1.273
20,0.01363,1.0112,1.1689,1.163,1.328,4.9801,1.128,1.297
50,0.00513,1.0032,1.1368,1.694,1.824,4.8996,1.631,1.764
100,0.00252,1.0014,1.1190,2.150,2.259,4.8540,2.064,2.175
1000,0.00025,1.0001,1.0842,4.163,4.214,4.7617,3.983,4.032
"""

PUBLISHED = {int(r["n"]): r for r in csv.DictReader(io.StringIO(PUBLISHED_TABLE_TEXT))}

#: two printed cells are off; these exact values were confirmed by
#: independent 25-to-40-digit quadrature and Monte Carlo
VERIFIED_CORRECTIONS = {(3, "plugin_mise"): "0.2323351", (1000, "epan_ratio2"): "4.0355"}

#: acceptance tolerance of each published column
TABLE_TOLERANCES = {
    "plugin_mise": 1e-5,
    "umvu_ratio": 1e-4,
    "b_n": 1e-4,
    "c_n": 1e-4,
    "normal_ratio1": 0.002,
    "epan_ratio1": 0.002,
    "normal_ratio2": 0.003,
    "epan_ratio2": 0.003,
}

LOGNORMAL_CROSSOVERS = {0.2: 312, 0.4: 87, 0.6: 45, 0.8: 31, 1.0: 25, 1.2: 22}
SKEW_CONSTANT, SKEW_TOL = 0.342, 0.002
SKEW_RATIO, SKEW_RATIO_TOL = 1.386, 0.005

#: curve values against the oracle.  The quadrature targets 1e-10 per
#: integral, and an error e in the variance moves sd by e / (2 sd); the
#: optimal bandwidth is found to about 1e-8, which moves the kernel curves
#: by up to about 1e-8 (7.4e-9 at n = 1000).  Values print to 12 digits
CURVE_ABS_TOL = 1e-7
RMSE_IDENTITY_REL_TOL = 1e-9
CURVE_SAMPLE = 12
GRID_POINTS = 301

MC_STANDARD_ERRORS = 4.0

@functools.cache
def oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _half_unit(printed: str) -> float:
    """Half a unit in the last printed decimal place."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return 0.5 * 10.0 ** (-decimals)


def _check_each(keys, check) -> list:
    """Run check(key) for every key; a parse error fails that operation."""
    out = []
    for key in keys:
        try:
            out.append(check(key))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            out.append(f"{key}: unreadable output ({type(exc).__name__}: {exc})")
    return out


def _ratio_order(row: dict) -> str | None:
    for kernel in ("normal", "epan"):
        if not float(row[f"{kernel}_ratio2"]) >= float(row[f"{kernel}_ratio1"]):
            return f"{kernel}_ratio2 < {kernel}_ratio1"
    return None


def published_table(text: str) -> list:
    """`table`: each of the 21 published rows at the acceptance tolerances."""
    rows = {int(r["n"]): r for r in _rows(text)}

    def check(n):
        got = rows[n]
        bad = []
        for col, tol in TABLE_TOLERANCES.items():
            want = VERIFIED_CORRECTIONS.get((n, col), PUBLISHED[n][col])
            if want == "inf" or got[col] == "inf":
                if got[col] != want:
                    bad.append(f"{col}={got[col]} want {want}")
            elif not abs(float(got[col]) - float(want)) <= tol:
                bad.append(f"{col}={got[col]} want {want}+-{tol}")
        order = _ratio_order(got)
        if order:
            bad.append(order)
        return f"n={n}: " + "; ".join(bad) if bad else None

    return _check_each(sorted(PUBLISHED), check)


def large_n_table(text: str) -> list:
    """`table --n 10000 100000 1000000`: each row the oracle holds, against it."""
    rows = {int(r["n"]): r for r in _rows(text)}
    reference = oracle()["table"]
    ns = sorted(int(n) for n in reference)

    def check(n):
        got = rows[n]
        bad = []
        for col, want in reference[str(n)].items():
            if not abs(float(got[col]) - want) <= _half_unit(got[col]) + 1e-12:
                bad.append(f"{col}={got[col]} oracle {want:.10g}")
        order = _ratio_order(got)
        if order:
            bad.append(order)
        return f"n={n}: " + "; ".join(bad) if bad else None

    return _check_each(ns, check)


def lognormal(text: str) -> list:
    """`lognormal`: each published crossover sample size."""
    got = {float(r["b"]): int(r["n0"]) for r in _rows(text)}

    def check(b):
        want = LOGNORMAL_CROSSOVERS[b]
        return None if got[b] == want else f"b={b}: n0={got[b]} want {want}"

    return _check_each(LOGNORMAL_CROSSOVERS, check)


def skew_mise(text: str) -> list:
    """`skew-mise`: the published constant 0.342 and its ratio 1.386."""

    def check(_):
        row = _rows(text)[0]
        value, ratio = float(row["n_mise_limit"]), float(row["ratio_to_normal_family"])
        if abs(value - SKEW_CONSTANT) <= SKEW_TOL and abs(ratio - SKEW_RATIO) <= SKEW_RATIO_TOL:
            return None
        return f"skew constant {value} ratio {ratio}"

    return _check_each(["skew"], check)


def figure_labels(which: int) -> tuple[str, str]:
    return ("parametric_plugin" if which == 1 else "normal_kernel", "epan_kernel")


def curve_sample(seed: int, n: int, label: str) -> list[int]:
    """Oracle grid points checked for one curve, drawn from the seed."""
    stored = [p[0] for p in oracle()["curves"][str(n)][label]]
    return sorted(random.Random(f"{seed}-{n}-{label}").sample(stored, CURVE_SAMPLE))


def figure(text: str, which: int, n: int, seed: int) -> list:
    """`figure`: each curve on the default grid; bias and sd at sampled
    points against the oracle, and rmse^2 = bias^2 + sd^2 everywhere."""
    points: dict[str, list] = {}
    for r in _rows(text):
        points.setdefault(r["estimator"], []).append(
            (float(r["x"]), float(r["bias"]), float(r["sd"]), float(r["rmse"]))
        )

    def check(label):
        curve = points[label]
        if len(curve) != GRID_POINTS:
            return f"{label}: {len(curve)} points, want {GRID_POINTS}"
        for i, (x, bias, sd, rmse) in enumerate(curve):
            if abs(x - (-3.0 + 0.02 * i)) > 1e-9:
                return f"{label}: grid point {i} is x={x}"
            if abs(rmse * rmse - (bias * bias + sd * sd)) > RMSE_IDENTITY_REL_TOL * rmse * rmse:
                return f"{label}: rmse^2 != bias^2 + sd^2 at x={x}"
        reference = {p[0]: p[1:] for p in oracle()["curves"][str(n)][label]}
        for i in curve_sample(seed, n, label):
            x, bias, sd, _ = curve[i]
            want_bias, want_sd = reference[i]
            if abs(bias - want_bias) > CURVE_ABS_TOL or abs(sd - want_sd) > CURVE_ABS_TOL:
                return f"{label}: x={x} bias={bias} sd={sd} oracle {want_bias:.12g} {want_sd:.12g}"
        return None

    return _check_each(figure_labels(which), check)


def exact_real_mise(kernel: str, n: int) -> tuple[float, float]:
    """Published ratio2 x benchmark, widened by the published rounding."""
    row = PUBLISHED[n]
    ratio, bench = row[f"{kernel}_ratio2"], row["plugin_mise"]
    r, dr = float(ratio), _half_unit(ratio)
    b, db = float(bench), _half_unit(bench)
    return (r - dr) * (b - db), (r + dr) * (b + db)


def monte_carlo(text: str, kernel: str, n: int) -> list:
    """`mise --method mc`: the estimate lies within 4 standard errors of the
    exact value."""

    def check(_):
        row = _rows(text)[0]
        if row["method"] != "monte_carlo" or row["kernel"] != kernel or int(row["n"]) != n:
            return f"unexpected record {row}"
        value, se = float(row["value"]), float(row["std_error"])
        lo, hi = exact_real_mise(kernel, n)
        slack = MC_STANDARD_ERRORS * se
        if math.isfinite(value) and lo - slack <= value <= hi + slack:
            return None
        return f"{kernel} n={n}: {value} +- {se} outside [{lo:.6g}, {hi:.6g}] by more than 4 se"

    return _check_each(["mc"], check)
