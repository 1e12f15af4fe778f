"""Benchmark of the normrisk command line, end to end and layer by layer.

    python3 bench/run.py --workload study|curves|montecarlo|all \
        --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI commands.  A round runs every command
once, each in a fresh interpreter (bench/child.py), one at a time, and
checks every output (bench/checks.py).  Rounds repeat until S seconds have
passed, and at least MIN_ROUNDS times, so every command is also checked to
give byte-identical output when repeated.

With --trace 0 the last stdout line reports the end-to-end metrics:

  setup_s      spawn of a process until normrisk.cli.main is importable,
               median over every process of the run
  wall_s       wall time of the workload's commands: each command's
               median over rounds, summed
  work_rate    items per second of time inside main (import excluded),
               each command's time again its median over rounds
  peak_rss_mb  the largest resident set of any process of the run

With --trace 1 untraced and traced rounds alternate, and the last line
reports the per-layer metrics of the traced rounds (see README.md), the
import times from ``python -X importtime``, and the tracing overhead
against the untraced rounds.  Spans and per-round details are written to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402

MIN_ROUNDS = 2
COMMAND_TIMEOUT_S = 150
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import normrisk.cli"

TABLE_LARGE_N = ("10000", "100000", "1000000")
CURVE_NS = (3, 14, 100, 1000)
MC_NS = (10, 50)
MC_REPLICATES = 10_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    items: int  # units of work, for work_rate
    check: Callable[[str], list]
    known_faults: frozenset = frozenset()  # indices of operations that fail today
    replicates: int = 0


def study(seed: int) -> list[Command]:
    # the published inputs are fixed: the seed does not change them
    return [
        Command(("table",), 21, checks.published_table),
        # the n = 1e5 and 1e6 rows suffer catastrophic cancellation in the
        # plug-in and UMVU MISE; the oracle check fails them
        Command(("table", "--n", *TABLE_LARGE_N), 3, checks.large_n_table, frozenset({1, 2})),
        Command(("lognormal",), 6, checks.lognormal),
        Command(("skew-mise",), 1, checks.skew_mise),
    ]


def curves(seed: int) -> list[Command]:
    # the seed picks the grid points checked against the oracle
    return [
        Command(
            ("figure", "--which", str(which), "--n", str(n)),
            2 * checks.GRID_POINTS,
            lambda text, which=which, n=n: checks.figure(text, which, n, seed),
        )
        for n in CURVE_NS
        for which in (1, 2)
    ]


def montecarlo(seed: int) -> list[Command]:
    mc_seed = str(random.Random(seed).randrange(1, 2**63))
    return [
        Command(
            ("mise", "--estimator", "kernel", "--kernel", kernel, "--n", str(n), "--rule", "thumb",
             "--method", "mc", "--seed", mc_seed, "--replicates", str(MC_REPLICATES)),
            MC_REPLICATES,
            lambda text, kernel=kernel, n=n: checks.monte_carlo(text, kernel, n),
            replicates=MC_REPLICATES,
        )
        for n in MC_NS
        for kernel in ("normal", "epan")
    ]


WORKLOADS = {"study": study, "curves": curves, "montecarlo": montecarlo}


@dataclass
class Round:
    walls: list = field(default_factory=list)  # per command, None when it failed
    mains: list = field(default_factory=list)
    items: int = 0
    replicates: int = 0
    setups: list = field(default_factory=list)
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # spans files of a traced round


def run_child(cmd: Command, spans: str | None) -> tuple[float, dict | None, str, str]:
    argv = [sys.executable, CHILD, *(["--spans", spans] if spans else []), "--", *cmd.argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.monotonic() - start, None, "", f"timed out after {COMMAND_TIMEOUT_S} s"
    wall = time.monotonic() - start
    lines = proc.stderr.splitlines()
    report = None
    if lines and lines[-1].startswith("BENCH "):
        report = json.loads(lines[-1][len("BENCH "):])
        report["setup_s"] = report["ready"] - start
    if proc.returncode != 0 or report is None:
        return wall, None, proc.stdout, proc.stderr[-2000:]
    return wall, report, proc.stdout, ""


def run_round(commands: list[Command], first_outputs: list, spans_dir: str | None) -> Round:
    rnd = Round()
    for k, cmd in enumerate(commands):
        spans = os.path.join(spans_dir, f"{k}.json") if spans_dir else None
        wall, report, out, err = run_child(cmd, spans)
        rnd.walls.append(wall if report else None)
        rnd.mains.append(report["main_s"] if report else None)
        if report is None:
            results = [f"{' '.join(cmd.argv)} failed: {err}"] * len(cmd.check(""))
        else:
            rnd.setups.append(report["setup_s"])
            rnd.peak_rss_kb = max(rnd.peak_rss_kb, report["maxrss_kb"])
            rnd.items += cmd.items
            rnd.replicates += cmd.replicates
            results = cmd.check(out)
            if first_outputs[k] is None:
                first_outputs[k] = out
            elif out != first_outputs[k]:
                results = [f"{' '.join(cmd.argv)}: output differs from the first round"] * len(results)
            if spans:
                rnd.spans.append(spans)
        rnd.attempted += len(results)
        for i, problem in enumerate(results):
            if problem is not None:
                rnd.failed += 1
                if i not in cmd.known_faults:
                    rnd.unexpected.append(problem)
    return rnd


def import_times_ms() -> dict:
    """Cumulative import time of normrisk, scipy and numpy, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if m:
            top = m.group(2).split(".")[0]
            cumulative[top] = max(cumulative.get(top, 0), int(m.group(1)))
    return {f"import.{name}_ms": cumulative.get(name, 0) / 1e3 for name in ("normrisk", "scipy", "numpy")}


def per_command(rounds: list[Round], key: str) -> list:
    """Each command's median time over rounds; None for a command that never ran."""
    columns = zip(*(getattr(r, key) for r in rounds))
    return [statistics.median(ok) if (ok := [t for t in col if t is not None]) else None for col in columns]


def end_to_end(rounds: list[Round], commands: list[Command]) -> dict:
    walls = per_command(rounds, "walls")
    mains = per_command(rounds, "mains")
    ran = [k for k, t in enumerate(mains) if t is not None]
    items = sum(commands[k].items for k in ran)
    return {
        "setup_s": (statistics.median(setups) if (setups := [s for r in rounds for s in r.setups]) else 0.0, "s"),
        "wall_s": (sum(walls[k] for k in ran), "s"),
        "work_rate": (items / sum(mains[k] for k in ran) if ran else 0.0, "items/s"),
        "peak_rss_mb": (max(r.peak_rss_kb for r in rounds) / 1024.0, "MB"),
    }


def layer_metrics(rnd: Round) -> dict:
    summary = tracer.summarize(rnd.spans)
    names, counters = summary["names"], summary["counters"]

    def get(name):
        return names.get(name, tracer.new_entry())

    def per_call(name, key="total_ns", scale=1e6):
        e = get(name)
        return e[key] / scale / e["calls"] if e["calls"] else 0.0

    def total_ms(name):
        return get(name)["total_ns"] / 1e6

    integrate = get("numerics.integrate")
    row_ms = [d / 1e6 for d in get("cli.comparison_row")["durations_ns"]] or [0.0]
    mc_us = get("bandwidth.real_mise_mc")["total_ns"] / 1e3
    metrics = {
        "numerics.integrate.calls": (integrate["calls"], "count"),
        "numerics.integrate.panels": (counters["panels"], "count"),
        "numerics.integrate.scalar_points": (counters["points"], "count"),
        "numerics.integrate.self_ms": (integrate["self_ns"] / 1e6, "ms"),
        "numerics.minimize_scalar.iterations": (counters["minimize_iterations"], "count"),
        "numerics.substream.calls": (get("numerics.substream")["calls"], "count"),
        "numerics.substream.us_per_call": (per_call("numerics.substream", scale=1e3), "us"),
        "parametric.exact_mise_plugin.ms": (total_ms("parametric.exact_mise_plugin"), "ms"),
        "parametric.exact_mise_umvu.us": (get("parametric.exact_mise_umvu")["total_ns"] / 1e3, "us"),
        "parametric.exact_mse_plugin.us_per_point": (per_call("parametric.exact_mse_plugin", scale=1e3), "us"),
        "parametric.exact_mse_plugin.panels_per_point": (per_call("parametric.exact_mse_plugin", "panels", 1), "count"),
        "kernels.exact_mse_kernel.us_per_point": (per_call("kernels.exact_mse_kernel", scale=1e3), "us"),
        "kernels.kernel_eval.ms": (total_ms("kernels.kernel_eval"), "ms"),
        "bandwidth.real_mise_exact.normal.ms": (per_call("bandwidth.real_mise_exact.normal"), "ms"),
        "bandwidth.real_mise_exact.normal.panels": (per_call("bandwidth.real_mise_exact.normal", "panels", 1), "count"),
        "bandwidth.real_mise_exact.epan.ms": (per_call("bandwidth.real_mise_exact.epan"), "ms"),
        "bandwidth.real_mise_exact.epan.panels": (per_call("bandwidth.real_mise_exact.epan", "panels", 1), "count"),
        "bandwidth.ancillary_densities.ms": (total_ms("bandwidth.ancillary_densities"), "ms"),
        "bandwidth.optimal_bandwidth_constant.ms": (total_ms("bandwidth.optimal_bandwidth_constant"), "ms"),
        "bandwidth.real_mise_mc.us_per_replicate": (mc_us / rnd.replicates if rnd.replicates else 0.0, "us"),
        "case_studies.lognormal_crossover.ms": (total_ms("case_studies.lognormal_crossover"), "ms"),
        "case_studies.skew_normal_asymptotic_mise.ms": (total_ms("case_studies.skew_normal_asymptotic_mise"), "ms"),
        "cli.comparison_row.ms.median": (statistics.median(row_ms), "ms"),
        "cli.comparison_row.ms.max": (max(row_ms), "ms"),
        "cli.figure_curves.ms": (total_ms("cli.figure_curves"), "ms"),
    }
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_ms"] = (summary["layer_self_ns"][layer] / 1e6, "ms")
    return metrics


def medians(samples: list[dict]) -> dict:
    return {name: (statistics.median(s[name][0] for s in samples), unit) for name, (_, unit) in samples[0].items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[name](seed)
    first_outputs: list = [None] * len(commands)
    spans_dir = os.path.join(RESULTS, "spans", name)
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    rounds: list[Round] = []
    traced: list[Round] = []
    imports: list[dict] = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds.append(run_round(commands, first_outputs, None))
        if trace:
            traced.append(run_round(commands, first_outputs, spans_dir))
            imports.append({k: (v, "ms") for k, v in import_times_ms().items()})

    everything = rounds + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    unexpected = [p for r in everything for p in r.unexpected]
    if trace:
        metrics = medians([layer_metrics(r) for r in traced])
        metrics.update(medians(imports))
        untraced_main = sum(t for t in per_command(rounds, "mains") if t is not None)
        traced_main = sum(t for t in per_command(traced, "mains") if t is not None)
        overhead = 100.0 * (traced_main / untraced_main - 1.0) if untraced_main else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
    else:
        metrics = end_to_end(rounds, commands)

    detail = {
        "workload": name, "seed": seed, "trace": trace, "rounds": len(rounds),
        "attempted": attempted, "failed": failed, "unexpected_failures": unexpected[:20],
        "wall_s": [r.walls for r in rounds], "main_s": [r.mains for r in rounds],
        "setup_s": [r.setups for r in rounds], "traced_main_s": [r.mains for r in traced],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for problem in unexpected[:5]:
        print(f"{name}: FAILED {problem}")
    print(f"{name}: {len(rounds)} rounds, attempted {attempted}, failed {failed}"
          f" ({failed - len(unexpected)} known)")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = os.path.join(ROOT, "src", "normrisk", "cli.py")
    if not os.path.isfile(source):
        print(f"bench: no package source at {source}", file=sys.stderr)
        return 2
    # the warm-up import also compiles bytecode, which no timed process should pay for
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                           text=True, timeout=COMMAND_TIMEOUT_S)
    if probe.returncode != 0:
        print(f"bench: cannot import normrisk:\n{probe.stderr}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
