"""Command-line interface.

Reproduces the estimator comparison table, emits the pointwise risk curves
behind the two figures, and exposes each MISE computation individually with
CSV or line-delimited JSON output.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import locale  # noqa: F401 -- argparse's gettext imports it for the first parser built
import math
import sys
from dataclasses import asdict, dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .bandwidth import (
    McConfig,
    optimal_bandwidth_constant,
    real_mise_exact,
    real_mise_mc,
    rule_of_thumb,
)
from .case_studies import lognormal_crossover, skew_normal_asymptotic_mise
from .kernels import (
    EPANECHNIKOV_KERNEL,
    KERNELS,
    NORMAL_KERNEL,
    Kernel,
    exact_mse_kernel,
    mise_closed_epan_kernel,
    mise_closed_normal_kernel,
    mise_fixed_bandwidth,
)
from .numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureConfig, _check_sample_size
from .parametric import (
    MiseReport,
    NormalParams,
    PLUGIN_AMISE_CONSTANT,
    STD_NORMAL,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
)

TABLE_SAMPLE_SIZES = tuple(range(3, 21)) + (50, 100, 1000)
LOGNORMAL_DEFAULT_SPREADS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)


@dataclass(frozen=True)
class ComparisonRow:
    """One sample size of the estimator comparison table.

    MISE of the plug-in estimator as the benchmark, every other method as
    a ratio against it; bandwidth constants for both kernels; ratio1 uses
    the best deterministic bandwidth, ratio2 the estimated one.
    """

    n: int
    plugin_mise: float
    umvu_ratio: float
    b_n: float
    normal_ratio1: float
    normal_ratio2: float
    c_n: float
    epan_ratio1: float
    epan_ratio2: float


@dataclass(frozen=True)
class RiskCurve:
    """Pointwise risk summary of one estimator over an x grid."""

    estimator_label: str
    points: tuple[tuple[float, float, float, float], ...]  # (x, bias, sd, rmse)


def comparison_row(n: int, cfg: Optional[QuadratureConfig] = None) -> ComparisonRow:
    """Compute one table row from scratch.

    cfg, when given, sets the tolerance of all three quadrature terms;
    None keeps each term's own default (plug-in 1e-10, real MISE 1e-11).
    """
    _check_sample_size(n, 3)
    bench = exact_mise_plugin(STD_NORMAL, n, DEFAULT_QUADRATURE if cfg is None else cfg).value
    normal = rule_of_thumb(NORMAL_KERNEL, n)
    epan = rule_of_thumb(EPANECHNIKOV_KERNEL, n)
    return ComparisonRow(
        n=n,
        plugin_mise=bench,
        umvu_ratio=exact_mise_umvu(STD_NORMAL, n).value / bench,
        b_n=optimal_bandwidth_constant(NORMAL_KERNEL, n),
        normal_ratio1=mise_closed_normal_kernel(n, normal.multiplier) / bench,
        normal_ratio2=real_mise_exact(normal, n, cfg).value / bench,
        c_n=optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, n),
        epan_ratio1=mise_closed_epan_kernel(n, epan.multiplier) / bench,
        epan_ratio2=real_mise_exact(epan, n, cfg).value / bench,
    )


def _risk_curve(label: str, xs: np.ndarray, bias, sd, mse) -> RiskCurve:
    columns = (xs, bias, sd, np.sqrt(mse))
    return RiskCurve(label, tuple(zip(*(c.tolist() for c in columns))))


def parametric_risk_curve(
    n: int,
    xs: Sequence[float],
    p: NormalParams = STD_NORMAL,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> RiskCurve:
    xs = np.asarray(xs, dtype=float)
    bias, variance, mse = exact_mse_plugin(xs, p, n, cfg)
    return _risk_curve("parametric_plugin", xs, bias, np.sqrt(np.maximum(variance, 0.0)), mse)


def kernel_risk_curve(
    kernel, n: int, h: float, xs: Sequence[float], p: NormalParams = STD_NORMAL
) -> RiskCurve:
    xs = np.asarray(xs, dtype=float)
    return _risk_curve(f"{kernel.name}_kernel", xs, *exact_mse_kernel(kernel, xs, p, n, h))


def figure_curves(
    which: int,
    n: int,
    xs: Sequence[float],
    sigma: float = 1.0,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[RiskCurve]:
    """Risk curves behind the two figures.

    Figure 1 contrasts the parametric plug-in with the parabolic kernel at
    its best deterministic bandwidth; figure 2 contrasts the two kernels,
    both at their best bandwidths.
    """
    if which not in (1, 2):
        raise ValueError("figure number must be 1 or 2")
    _check_sample_size(n, 3)
    p = NormalParams(0.0, sigma)
    h_epan = rule_of_thumb(EPANECHNIKOV_KERNEL, n).multiplier * sigma
    epan = kernel_risk_curve(EPANECHNIKOV_KERNEL, n, h_epan, xs, p)
    if which == 1:
        return [parametric_risk_curve(n, xs, p, cfg), epan]
    h_norm = rule_of_thumb(NORMAL_KERNEL, n).multiplier * sigma
    return [kernel_risk_curve(NORMAL_KERNEL, n, h_norm, xs, p), epan]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# column -> format spec of each output (see _emit)
_TABLE_COLUMNS = {"n": "d", "plugin_mise": ".5f"} | dict.fromkeys(
    ("umvu_ratio", "b_n", "normal_ratio1", "normal_ratio2", "c_n", "epan_ratio1", "epan_ratio2"), ".4f"
)
_CURVE_COLUMNS = {"estimator": "", "x": ".6g", "bias": ".12g", "sd": ".12g", "rmse": ".12g"}


def _json_value(value, spec: str):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        if spec.endswith("f"):
            return round(value, int(spec[1:-1]))
    return value


def _open_out(path: Optional[str]) -> contextlib.AbstractContextManager[IO[str]]:
    """The --out file opened for writing, or stdout (left open on exit);
    main opens it before computing, so a bad path fails before the work."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


def _emit(args: argparse.Namespace, columns: dict[str, str], records: Iterable[dict]) -> None:
    """Write records as CSV or line-delimited JSON to args.stream.

    CSV prints the mapped columns, each value as format(value, spec), and
    None as an empty cell.  JSON prints every key of each record; a
    fixed-point spec rounds the number there too, any other spec keeps full
    precision.  Infinity prints as inf in CSV and as null in JSON.
    """
    if args.format == "csv":
        lines = [",".join(columns)] + [
            ",".join("" if r[k] is None else format(r[k], spec) for k, spec in columns.items())
            for r in records
        ]
    else:
        lines = [
            json.dumps({k: _json_value(v, columns.get(k, "")) for k, v in r.items()})
            for r in records
        ]
    args.stream.write("".join(line + "\n" for line in lines))


def _curve_records(curves: Sequence[RiskCurve]) -> Iterator[dict]:
    for c in curves:
        for x, bias, sd, rmse in c.points:
            yield {"estimator": c.estimator_label, "x": x, "bias": bias, "sd": sd, "rmse": rmse}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _quad_config(
    tol: Optional[float], default: Optional[QuadratureConfig] = DEFAULT_QUADRATURE
) -> Optional[QuadratureConfig]:
    """The configuration --tol asks for, or `default` when it is not given.

    A default of None is no override: each quadrature keeps its own.
    """
    if tol is None:
        return default
    return QuadratureConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=4096)


def _cmd_table(args: argparse.Namespace) -> None:
    ns = args.n if args.n else list(TABLE_SAMPLE_SIZES)
    for n in ns:
        _check_sample_size(n, 3)
    cfg = _quad_config(args.tol, default=None)
    records = [asdict(comparison_row(n, cfg)) for n in ns]
    for record in records:
        if math.isinf(record["umvu_ratio"]):
            record["umvu_ratio_infinite"] = True
    _emit(args, _TABLE_COLUMNS, records)


def _x_grid(args: argparse.Namespace) -> np.ndarray:
    if not all(map(math.isfinite, (args.x_min, args.x_max, args.x_step))):
        raise ValueError("--x-min, --x-max and --x-step must be finite")
    if args.x_max <= args.x_min:
        raise ValueError("x-max must exceed x-min")
    if args.x_step <= 0:
        raise ValueError("x-step must be positive")
    count = int(round((args.x_max - args.x_min) / args.x_step)) + 1
    return args.x_min + args.x_step * np.arange(count)


def _cmd_figure(args: argparse.Namespace) -> None:
    curves = figure_curves(args.which, args.n, _x_grid(args), args.sigma, _quad_config(args.tol))
    _emit(args, _CURVE_COLUMNS, _curve_records(curves))


def _reject_kernel_flags(args: argparse.Namespace) -> None:
    if args.kernel or args.h is not None or args.rule:
        raise ValueError(f"the {args.estimator} estimator is exact-only and takes no kernel flags")


def _kernel(args: argparse.Namespace) -> Kernel:
    """--kernel, checked to come with exactly one of a fixed --h and the --rule of thumb."""
    if not args.kernel:
        raise ValueError("kernel estimators require --kernel")
    if (args.h is None) == (not args.rule):
        raise ValueError("specify exactly one of --h and --rule")
    if args.h is not None and args.h <= 0:
        raise ValueError("--h must be positive")
    return KERNELS[args.kernel]


def _cmd_mse_curve(args: argparse.Namespace) -> None:
    xs = _x_grid(args)
    p = NormalParams(0.0, args.sigma)
    if args.estimator == "plugin":
        _reject_kernel_flags(args)
        curve = parametric_risk_curve(args.n, xs, p, _quad_config(args.tol))
    else:
        kernel = _kernel(args)
        # --h is the bandwidth itself, as in `mise`; the rule scales with sigma
        h = rule_of_thumb(kernel, args.n).multiplier * args.sigma if args.rule else args.h
        curve = kernel_risk_curve(kernel, args.n, h, xs, p)
    _emit(args, _CURVE_COLUMNS, _curve_records([curve]))


def _cmd_mise(args: argparse.Namespace) -> None:
    p = NormalParams(0.0, args.sigma)
    columns = {"estimator": "", "n": "d"}
    record = {"estimator": args.estimator, "n": args.n}
    if args.estimator != "kernel" and args.method == "mc":
        raise ValueError(f"the {args.estimator} estimator is exact-only; --method mc needs a kernel")
    if args.estimator == "plugin":
        _reject_kernel_flags(args)
        report = exact_mise_plugin(p, args.n, _quad_config(args.tol))
    elif args.estimator == "umvu":
        _reject_kernel_flags(args)
        report = exact_mise_umvu(p, args.n)
    else:
        kernel = _kernel(args)
        columns["kernel"] = ""
        record["kernel"] = kernel.name
        if not args.rule:
            if args.method == "mc":
                raise ValueError("fixed --h is exact-only; use --rule for mc")
            report = mise_fixed_bandwidth(kernel, p, args.n, args.h)
        else:
            rule = rule_of_thumb(kernel, args.n)
            if args.method == "mc":
                mc = McConfig(replicates=args.replicates, eval_points=args.eval_points, seed=args.seed)
                std = real_mise_mc(rule, args.n, mc)
            else:
                std = real_mise_exact(rule, args.n, _quad_config(args.tol, default=None))
            # the risk of the rule at a normal of scale sigma is the standard one over sigma
            std_error = None if std.std_error is None else std.std_error / args.sigma
            report = MiseReport(value=std.value / args.sigma, method=std.method, std_error=std_error)
    columns.update(value=".10g", method="", std_error=".6g")
    record.update(
        value=report.value,
        infinite=math.isinf(report.value),
        method=report.method,
        std_error=report.std_error,
    )
    _emit(args, columns, [record])


def _cmd_bandwidth_constants(args: argparse.Namespace) -> None:
    ns = args.n if args.n else list(TABLE_SAMPLE_SIZES)
    records = [
        {
            "n": n,
            "b_n": optimal_bandwidth_constant(NORMAL_KERNEL, n),
            "c_n": optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, n),
        }
        for n in ns
    ]
    _emit(args, {"n": "d", "b_n": ".6f", "c_n": ".6f"}, records)


def _cmd_lognormal(args: argparse.Namespace) -> None:
    spreads = args.b if args.b is not None else list(LOGNORMAL_DEFAULT_SPREADS)
    for b in spreads:
        if not b > 0:
            raise ValueError(f"log-scale spreads must be positive, got {b}")
    records = [{"b": r.log_sd, "n0": r.n_crossover} for r in map(lognormal_crossover, spreads)]
    _emit(args, {"b": "g", "n0": "d"}, records)


def _cmd_skew_mise(args: argparse.Namespace) -> None:
    value = skew_normal_asymptotic_mise(args.sigma, _quad_config(args.tol))
    record = {
        "sigma": args.sigma,
        "n_mise_limit": value,
        "ratio_to_normal_family": value * args.sigma / PLUGIN_AMISE_CONSTANT,
    }
    _emit(args, {"sigma": "g", "n_mise_limit": ".6f", "ratio_to_normal_family": ".6f"}, [record])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--tol", type=_tolerance, default=None, help="quadrature tolerance override")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x-min", type=float, default=-3.0)
    sp.add_argument("--x-max", type=float, default=3.0)
    sp.add_argument("--x-step", type=float, default=0.02)


#: the one-value float flags, whose values may be negative
_FLOAT_FLAGS = frozenset({"--x-min", "--x-max", "--x-step", "--sigma", "--h", "--tol"})
#: the list-valued float flags, which take every float that follows as a value
_FLOAT_LIST_FLAGS = frozenset({"--b"})


def _attach_float_values(argv: Sequence[str]) -> list[str]:
    """Join each float flag to a following negative number, as in --x-min=-1e0.

    argparse takes a separate value such as -1e0 or -inf for an option (it
    knows only plain negatives like -1.0), and --x-min -1e0 would then fail
    with "expected one argument".  A list flag is joined to each float of
    the run that follows it, --b 0.2 -1e0 becoming --b --b=0.2 --b=-1e0,
    which its "extend" action collects into one list.
    """
    out: list[str] = []
    list_flag = None
    for arg in argv:
        if list_flag is not None and _is_float(arg):
            out.append(f"{list_flag}={arg}")
            continue
        list_flag = arg if arg in _FLOAT_LIST_FLAGS else None
        if out and out[-1] in _FLOAT_FLAGS and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normrisk",
        description="Exact risk of parametric and kernel density estimators of a normal density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="estimator comparison table")
    sp.add_argument("--n", type=int, nargs="*", default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_table)

    sp = sub.add_parser("figure", help="pointwise risk curves behind the figures")
    sp.add_argument("--which", type=int, choices=(1, 2), required=True)
    sp.add_argument("--n", type=int, default=14)
    sp.add_argument("--sigma", type=float, default=1.0)
    _add_grid_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_figure)

    sp = sub.add_parser("mise", help="one MISE value for one estimator")
    sp.add_argument("--estimator", choices=("plugin", "umvu", "kernel"), required=True)
    sp.add_argument("--kernel", choices=tuple(KERNELS), default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=float, default=None, help="fixed bandwidth")
    sp.add_argument("--rule", choices=("thumb",), default=None, help="data-driven bandwidth rule")
    sp.add_argument("--method", choices=("exact", "mc"), default="exact")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=1234)
    sp.add_argument("--replicates", type=int, default=10000)
    sp.add_argument("--eval-points", type=int, default=10)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_mise)

    sp = sub.add_parser("mse-curve", help="pointwise risk curve for one estimator")
    sp.add_argument("--estimator", choices=("plugin", "kernel"), required=True)
    sp.add_argument("--kernel", choices=tuple(KERNELS), default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--rule", choices=("thumb",), default=None)
    sp.add_argument("--sigma", type=float, default=1.0)
    _add_grid_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_mse_curve)

    sp = sub.add_parser("bandwidth-constants", help="optimal bandwidth constants per n")
    sp.add_argument("--n", type=int, nargs="*", default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_bandwidth_constants)

    sp = sub.add_parser("lognormal", help="lognormal-mean crossover sample sizes")
    sp.add_argument(
        "--b", type=float, nargs="*", action="extend", default=None, help="log-scale spreads"
    )
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_lognormal)

    sp = sub.add_parser("skew-mise", help="asymptotic MISE constant of the skew-extended family")
    sp.add_argument("--sigma", type=float, default=1.0)
    _add_output_flags(sp)
    sp.set_defaults(handler=_cmd_skew_mise)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse has printed the usage error (2) or --help (0)
        return exc.code
    try:
        with _open_out(args.out) as args.stream:
            args.handler(args)
    except ValueError as exc:
        print(f"normrisk: usage error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"normrisk: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
