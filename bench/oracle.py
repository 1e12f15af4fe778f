"""40-digit mpmath oracle for the values the benchmark checks.

Every quantity is derived here from first principles, independently of
the package's own formulas and quadrature:

* plug-in MISE: with mu_hat ~ N(0, 1/n) independent of Z = sigma_hat,
  E int f_hat^2 = E(1/Z) / (2 sqrt(pi)) and E int f_hat phi =
  E[1 / sqrt(2 pi (1 + Z^2 + 1/n))], where Z^2 ~ chi2(n-1)/(n-1);
* UMVU MISE: the unbiased estimator's normalizing constant and its
  squared integral are Beta functions, so E int f_tilde^2 =
  E(1/Z) C^2 (n-1)/sqrt(n) B(1/2, n-3);
* normal-kernel MISE at a fixed bandwidth: the Marron-Wand closed form;
* pointwise bias and sd of the plug-in estimator (expectations over Z of
  Gaussian convolutions) and of both kernel estimators (one-dimensional
  integrals of the kernel against the normal density).

Optimal bandwidth constants are found by a root search on the derivative
of the oracle MISE.  Running this file regenerates ``oracle.json``:

    python3 bench/oracle.py
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp

mp.mp.dps = 40

#: sample sizes of the large-n `table` rows checked against the oracle
TABLE_NS = (10_000, 100_000, 1_000_000)
#: sample sizes of the `figure` commands in the `curves` workload
CURVE_NS = (3, 14, 100, 1000)
#: every fifth point of the CLI's default x grid (-3 to 3 in steps of 0.02)
#: carries an oracle value
ORACLE_GRID = range(0, 301, 5)

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

SQRT_PI = mp.sqrt(mp.pi)


def grid_x(i: int) -> mp.mpf:
    return mp.mpf(-3) + mp.mpf(i) * mp.mpf("0.02")


def phi(x, var=1):
    return mp.exp(-x * x / (2 * var)) / mp.sqrt(2 * mp.pi * var)


def chi_expect(n: int, g) -> mp.mpf:
    """E g(Z) for Z^2 ~ chi2(n-1)/(n-1), split around the peak at 1."""
    nu = mp.mpf(n - 1)
    log_c = mp.log(2) + (nu / 2) * mp.log(nu / 2) - mp.loggamma(nu / 2)
    s = 1 / mp.sqrt(2 * nu)
    cuts = sorted({mp.mpf(0), *(1 + k * s for k in (-14, -7, -3, 0, 3, 7, 14) if 1 + k * s > 0)})

    def f(z):
        return g(z) * mp.exp(log_c + (nu - 1) * mp.log(z) - nu * z * z / 2)

    return mp.quad(f, cuts + [mp.inf])


def inverse_scale_mean(n: int) -> mp.mpf:
    """E(1/Z) by the gamma-function ratio."""
    nu = mp.mpf(n - 1)
    return mp.sqrt(nu / 2) * mp.exp(mp.loggamma((nu - 1) / 2) - mp.loggamma(nu / 2))


def plugin_mise(n: int) -> mp.mpf:
    cross = chi_expect(n, lambda z: 1 / mp.sqrt(2 * mp.pi * (1 + z * z + mp.mpf(1) / n)))
    return (inverse_scale_mean(n) + 1) / (2 * SQRT_PI) - 2 * cross


def umvu_mise(n: int) -> mp.mpf:
    edge = mp.mpf(n - 1) / mp.sqrt(n)
    const = 1 / (edge * mp.beta(mp.mpf(1) / 2, mp.mpf(n) / 2 - 1))
    squared = inverse_scale_mean(n) * const**2 * edge * mp.beta(mp.mpf(1) / 2, n - 3)
    return squared - 1 / (2 * SQRT_PI)


def normal_kernel_mise(n: int, h) -> mp.mpf:
    return (
        1 / (n * h)
        + (1 - mp.mpf(1) / n) / mp.sqrt(1 + h * h)
        - 2 / mp.sqrt(1 + h * h / 2)
        + 1
    ) / (2 * SQRT_PI)


def epan_kernel(u):
    return mp.mpf("1.5") * (1 - 4 * u * u) if abs(u) <= mp.mpf("0.5") else mp.mpf(0)


def epan_self_convolution(u):
    """int K(v) K(v + u) dv as a polynomial; `check_self_convolution` verifies it."""
    u = abs(u)
    return mp.mpf("1.2") * (1 - 5 * u**2 + 5 * u**3 - u**5) if u < 1 else mp.mpf(0)


def check_self_convolution() -> None:
    for u in (mp.mpf("0.1"), mp.mpf("0.37"), mp.mpf("0.8")):
        direct = mp.quad(lambda v: epan_kernel(v) * epan_kernel(v + u), [-mp.mpf("0.5"), mp.mpf("0.5") - u])
        if abs(direct - epan_self_convolution(u)) > mp.mpf(10) ** (-35):
            raise SystemExit(f"self-convolution polynomial is wrong at u={u}")


def epan_kernel_mise(n: int, h) -> mp.mpf:
    def g(y):  # density of the difference of two standard normals
        return phi(y, 2)

    pair = 2 * mp.quad(lambda u: epan_self_convolution(u) * g(h * u), [0, 1])
    overlap = 2 * mp.quad(lambda u: epan_kernel(u) * g(h * u), [0, mp.mpf("0.5")])
    return mp.mpf("1.2") / (n * h) + (1 - mp.mpf(1) / n) * pair - 2 * overlap + g(0)


def optimal_constant(mise, n: int, start) -> mp.mpf:
    """Constant c minimizing mise(n, c n^-1/5), by a root of the derivative."""
    scale = mp.mpf(n) ** (-mp.mpf(1) / 5)
    return mp.findroot(lambda c: mp.diff(lambda t: mise(n, t * scale), c), start)


def plugin_point(n: int, x) -> tuple[mp.mpf, mp.mpf]:
    """Exact (bias, sd) of the plug-in estimator at x."""
    inv_n = mp.mpf(1) / n
    mean = chi_expect(n, lambda z: phi(x, z * z + inv_n))
    second = chi_expect(n, lambda z: phi(x, z * z / 2 + inv_n) / (2 * SQRT_PI * z))
    return mean - phi(x), mp.sqrt(second - mean * mean)


def kernel_point(kernel: str, n: int, h, x) -> tuple[mp.mpf, mp.mpf]:
    """Exact (bias, sd) of a kernel estimator with bandwidth h at x."""
    if kernel == "normal":
        mean = phi(x, 1 + h * h)
        kernel_sq = phi(x, 1 + h * h / 2) / (2 * SQRT_PI)
    else:
        half = mp.mpf("0.5")
        mean = mp.quad(lambda u: epan_kernel(u) * phi(x - h * u), [-half, 0, half])
        kernel_sq = mp.quad(lambda u: epan_kernel(u) ** 2 * phi(x - h * u), [-half, 0, half])
    variance = (kernel_sq / h - mean * mean) / n
    return mean - phi(x), mp.sqrt(variance)


def table_rows() -> dict:
    rows = {}
    for n in TABLE_NS:
        bench = plugin_mise(n)
        b_n = optimal_constant(normal_kernel_mise, n, mp.mpf("1.06"))
        rows[str(n)] = {
            "plugin_mise": float(bench),
            "umvu_ratio": float(umvu_mise(n) / bench),
            "b_n": float(b_n),
            "normal_ratio1": float(normal_kernel_mise(n, b_n * mp.mpf(n) ** (-mp.mpf(1) / 5)) / bench),
        }
        print(f"table n={n}: {rows[str(n)]}", file=sys.stderr)
    return rows


def curves() -> dict:
    out = {}
    for n in CURVE_NS:
        scale = mp.mpf(n) ** (-mp.mpf(1) / 5)
        h = {
            "normal": optimal_constant(normal_kernel_mise, n, mp.mpf("1.2")) * scale,
            "epan": optimal_constant(epan_kernel_mise, n, mp.mpf("5.0")) * scale,
        }
        curves_n = {"parametric_plugin": [], "normal_kernel": [], "epan_kernel": []}
        for i in ORACLE_GRID:
            x = grid_x(i)
            curves_n["parametric_plugin"].append([i, *map(float, plugin_point(n, x))])
            for kernel in ("normal", "epan"):
                bias, sd = kernel_point(kernel, n, h[kernel], x)
                curves_n[f"{kernel}_kernel"].append([i, float(bias), float(sd)])
        out[str(n)] = curves_n
        print(f"curves n={n}: done", file=sys.stderr)
    return out


def main() -> None:
    check_self_convolution()
    data = {"mpmath_dps": mp.mp.dps, "table": table_rows(), "curves": curves()}
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
