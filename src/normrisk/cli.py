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
from typing import IO, Iterable, Optional, Sequence

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
from .numerics import NumericsError, _check_sample_size
from .parametric import (
    NormalParams,
    PLUGIN_AMISE_CONSTANT,
    STD_NORMAL,
    exact_mise_plugin,
    exact_mise_umvu,
    exact_mse_plugin,
    plugin_mise_column,
)

TABLE_SAMPLE_SIZES = tuple(range(3, 21)) + (50, 100, 1000)
LOGNORMAL_DEFAULT_SPREADS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
#: the most points an x grid may hold; the default grid has 301
MAX_GRID_POINTS = 10**6


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


def comparison_row(n: int, plugin_mise: float) -> ComparisonRow:
    """Compute one table row, given its plug-in MISE, the benchmark that
    every ratio is taken against (`plugin_mise_column` gives a table's).

    Both real MISE values run at their own tolerance of 1e-11.
    """
    _check_sample_size(n, 3)
    normal = rule_of_thumb(NORMAL_KERNEL, n)
    epan = rule_of_thumb(EPANECHNIKOV_KERNEL, n)
    return ComparisonRow(
        n=n,
        plugin_mise=plugin_mise,
        umvu_ratio=exact_mise_umvu(STD_NORMAL, n).value / plugin_mise,
        b_n=optimal_bandwidth_constant(NORMAL_KERNEL, n),
        normal_ratio1=mise_closed_normal_kernel(n, normal.multiplier) / plugin_mise,
        normal_ratio2=real_mise_exact(normal, STD_NORMAL, n).value / plugin_mise,
        c_n=optimal_bandwidth_constant(EPANECHNIKOV_KERNEL, n),
        epan_ratio1=mise_closed_epan_kernel(n, epan.multiplier) / plugin_mise,
        epan_ratio2=real_mise_exact(epan, STD_NORMAL, n).value / plugin_mise,
    )


def risk_curve(
    n: int, xs: Sequence[float], p: NormalParams, kernel: Optional[Kernel] = None, h: Optional[float] = None
) -> list[dict]:
    """Bias, sd and rmse over xs of the plug-in estimator, or of `kernel` at
    bandwidth h, in the units of xs, or by default at its rule of thumb: one
    record {estimator, x, bias, sd, rmse} per point of xs, in order."""
    xs = np.asarray(xs, dtype=float)
    if kernel is None:
        label, risk = "parametric_plugin", exact_mse_plugin(xs, p, n)
    else:
        # the rule's bandwidth in data units, m sigma, which exact_mse_kernel divides by sigma again
        h = rule_of_thumb(kernel, n).bandwidth(p) if h is None else h
        label, risk = f"{kernel.name}_kernel", exact_mse_kernel(kernel, xs, p, n, h)
    return [
        {"estimator": label, "x": x, "bias": bias, "sd": sd, "rmse": rmse}
        for x, bias, sd, rmse in zip(xs.tolist(), *(c.tolist() for c in risk))
    ]


def figure_curves(which: int, n: int, xs: Sequence[float], sigma: float = 1.0) -> list[list[dict]]:
    """Risk curves behind the two figures, as `risk_curve` records.

    Figure 1 contrasts the parametric plug-in with the parabolic kernel at
    its best deterministic bandwidth; figure 2 contrasts the two kernels,
    both at their best bandwidths.
    """
    if which not in (1, 2):
        raise ValueError("figure number must be 1 or 2")
    _check_sample_size(n, 3)
    p = NormalParams(0.0, sigma)
    first = risk_curve(n, xs, p, None if which == 1 else NORMAL_KERNEL)
    return [first, risk_curve(n, xs, p, EPANECHNIKOV_KERNEL)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# column -> format spec of each output (see _emit)
_TABLE_COLUMNS = {"n": "d", "plugin_mise": ".5f"} | dict.fromkeys(
    ("umvu_ratio", "b_n", "normal_ratio1", "normal_ratio2", "c_n", "epan_ratio1", "epan_ratio2"), ".4f"
)
_CURVE_COLUMNS = {"estimator": "", "x": ".6g", "bias": ".12g", "sd": ".12g", "rmse": ".12g"}


class _Empty:
    """A CSV cell that formats as the empty string under any spec."""

    def __format__(self, spec: str) -> str:
        return ""


_EMPTY = _Empty()


def _json_value(value):
    return None if isinstance(value, float) and math.isinf(value) else value


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
    None as an empty cell.  JSON prints every key of each record at full
    precision.  Infinity prints as inf in CSV and as null in JSON.
    """
    if args.format == "csv":
        # one template per call, formatted once per record
        row = ",".join(f"{{:{spec}}}" for spec in columns.values()).format
        lines = [",".join(columns)] + [
            row(*[_EMPTY if r[k] is None else r[k] for k in columns]) for r in records
        ]
    else:
        lines = [json.dumps({k: _json_value(v) for k, v in r.items()}) for r in records]
    args.stream.write("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> None:
    ns = args.n if args.n else list(TABLE_SAMPLE_SIZES)
    # the plug-in column as one integral, each row given its value
    records = [asdict(comparison_row(n, b)) for n, b in zip(ns, plugin_mise_column(STD_NORMAL, ns))]
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
    # min() keeps out of round() the infinite count of an overflowing span or a subnormal step
    steps = round(min((args.x_max - args.x_min) / args.x_step, MAX_GRID_POINTS))
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"the x grid may hold at most {MAX_GRID_POINTS} points")
    return args.x_min + args.x_step * np.arange(steps + 1)


def _cmd_figure(args: argparse.Namespace) -> None:
    first, second = figure_curves(args.which, args.n, _x_grid(args), args.sigma)
    _emit(args, _CURVE_COLUMNS, first + second)


def _reject_kernel_flags(args: argparse.Namespace) -> None:
    if args.kernel or args.h is not None or args.rule:
        raise ValueError(f"the {args.estimator} estimator is exact-only and takes no kernel flags")


def _kernel(args: argparse.Namespace) -> Kernel:
    """--kernel, checked to come with exactly one of a fixed --h and the --rule of thumb."""
    if not args.kernel:
        raise ValueError("kernel estimators require --kernel")
    if (args.h is None) == (not args.rule):
        raise ValueError("specify exactly one of --h and --rule")
    return KERNELS[args.kernel]


def _cmd_mse_curve(args: argparse.Namespace) -> None:
    xs = _x_grid(args)
    p = NormalParams(0.0, args.sigma)
    if args.estimator == "plugin":
        _reject_kernel_flags(args)
        curve = risk_curve(args.n, xs, p)
    else:
        # --h is the bandwidth itself, as in `mise`; without it, the rule of thumb's
        curve = risk_curve(args.n, xs, p, _kernel(args), args.h)
    _emit(args, _CURVE_COLUMNS, curve)


def _cmd_mise(args: argparse.Namespace) -> None:
    p = NormalParams(0.0, args.sigma)
    columns = {"estimator": "", "n": "d"}
    record = {"estimator": args.estimator, "n": args.n}
    if args.estimator != "kernel" and args.method == "mc":
        raise ValueError(f"the {args.estimator} estimator is exact-only; --method mc needs a kernel")
    if args.estimator == "plugin":
        _reject_kernel_flags(args)
        report = exact_mise_plugin(p, args.n)
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
                report = real_mise_mc(rule, p, args.n, mc)
            else:
                report = real_mise_exact(rule, p, args.n)
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
    record = {
        "sigma": args.sigma,
        "n_mise_limit": skew_normal_asymptotic_mise(args.sigma),
        # sigma cancels in the ratio
        "ratio_to_normal_family": skew_normal_asymptotic_mise(1.0) / PLUGIN_AMISE_CONSTANT,
    }
    _emit(args, {"sigma": "g", "n_mise_limit": ".6f", "ratio_to_normal_family": ".6f"}, [record])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x-min", type=float, default=-3.0)
    sp.add_argument("--x-max", type=float, default=3.0)
    sp.add_argument("--x-step", type=float, default=0.02)


#: the one-value float flags, whose values may be negative
_FLOAT_FLAGS = frozenset({"--x-min", "--x-max", "--x-step", "--sigma", "--h"})
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


def _n_list_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, nargs="*", default=None)


def _figure_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--which", type=int, choices=(1, 2), required=True)
    sp.add_argument("--n", type=int, default=14)
    sp.add_argument("--sigma", type=float, default=1.0)
    _add_grid_flags(sp)


def _mise_flags(sp: argparse.ArgumentParser) -> None:
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


def _mse_curve_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--estimator", choices=("plugin", "kernel"), required=True)
    sp.add_argument("--kernel", choices=tuple(KERNELS), default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--rule", choices=("thumb",), default=None)
    sp.add_argument("--sigma", type=float, default=1.0)
    _add_grid_flags(sp)


def _lognormal_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--b", type=float, nargs="*", action="extend", default=None, help="log-scale spreads"
    )


def _skew_mise_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sigma", type=float, default=1.0)


#: name -> (help, flags, handler) of each subcommand; every one also takes
#: the output flags
_SUBCOMMANDS = {
    "table": ("estimator comparison table", _n_list_flags, _cmd_table),
    "figure": ("pointwise risk curves behind the figures", _figure_flags, _cmd_figure),
    "mise": ("one MISE value for one estimator", _mise_flags, _cmd_mise),
    "mse-curve": ("pointwise risk curve for one estimator", _mse_curve_flags, _cmd_mse_curve),
    "bandwidth-constants": (
        "optimal bandwidth constants per n", _n_list_flags, _cmd_bandwidth_constants
    ),
    "lognormal": ("lognormal-mean crossover sample sizes", _lognormal_flags, _cmd_lognormal),
    "skew-mise": (
        "asymptotic MISE constant of the skew-extended family", _skew_mise_flags, _cmd_skew_mise
    ),
}


def _define(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give sp the flags and handler of subcommand `name`."""
    _, add_flags, handler = _SUBCOMMANDS[name]
    add_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=handler)
    return sp


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="normrisk",
        description="Exact risk of parametric and kernel density estimators of a normal density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        _define(sub.add_parser(name, help=help_text), name)
    return parser


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone, parsing as it does within `build_parser`."""
    return _define(argparse.ArgumentParser(prog=f"normrisk {name}"), name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_float_values(sys.argv[1:] if argv is None else argv)
    # a named subcommand needs the parser of that subcommand alone; the whole
    # tree serves --help, no arguments and an unknown command
    if argv and argv[0] in _SUBCOMMANDS:
        parser, argv = _subcommand_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
