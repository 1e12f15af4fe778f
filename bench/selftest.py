"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Runs every command of every workload once, then feeds each checker a copy
of that real output with one value moved past its tolerance, and asserts
that the checker counts exactly that operation as failed where it passed
before.  The repeated-output check is tested the same way, by offering a
perturbed copy as the first round's output.  Exits 1 if any perturbation
goes unnoticed.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402

SEED = 1


def perturb(text: str, column: str, where: dict, change, nth: int = 0) -> str:
    """Apply change to `column` of the nth CSV row matching `where`."""
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    seen = 0
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if all(cells[header.index(k)] == v for k, v in where.items()):
            if seen == nth:
                cells[col] = change(cells[col])
                lines[i] = ",".join(cells)
                return "\n".join(lines) + "\n"
            seen += 1
    raise ValueError(f"no row {where} #{nth}")


def shift(delta: float, fmt: str = "{:.6g}"):
    return lambda cell: fmt.format(float(cell) + delta)


def _figure_cases(commands):
    cases = []
    for k, cmd in enumerate(commands):
        which, n = int(cmd.argv[2]), int(cmd.argv[4])
        for op, label in enumerate(checks.figure_labels(which)):
            i = checks.curve_sample(SEED, n, label)[0]
            cases.append((k, op, f"figure {which} n={n} {label}: bias at grid point {i} + 1e-6",
                          lambda t, label=label, i=i: perturb(t, "bias", {"estimator": label}, shift(1e-6, "{:.12g}"), i)))
            cases.append((k, op, f"figure {which} n={n} {label}: rmse at grid point 150 x (1 + 1e-6)",
                          lambda t, label=label: perturb(t, "rmse", {"estimator": label},
                                                         lambda c: f"{float(c) * (1 + 1e-6):.12g}", 150)))
    return cases


def cases_for(workload: str, commands) -> list:
    """(command index, operation index, description, perturbation)."""
    if workload == "study":
        return [
            (0, 7, "table n=10 normal_ratio2 + 0.004", lambda t: perturb(t, "normal_ratio2", {"n": "10"}, shift(0.004, "{:.4f}"))),
            (0, 0, "table n=3 umvu_ratio finite", lambda t: perturb(t, "umvu_ratio", {"n": "3"}, lambda c: "1.0000")),
            (0, 0, "table n=3 plugin_mise at the printed 0.23230", lambda t: perturb(t, "plugin_mise", {"n": "3"}, lambda c: "0.23230")),
            (1, 0, "table n=10000 umvu_ratio + 2e-4", lambda t: perturb(t, "umvu_ratio", {"n": "10000"}, shift(2e-4, "{:.4f}"))),
            (1, 0, "table n=10000 normal_ratio1 + 1e-4", lambda t: perturb(t, "normal_ratio1", {"n": "10000"}, shift(1e-4, "{:.4f}"))),
            (1, 0, "table n=10000 epan_ratio1 above epan_ratio2", lambda t: perturb(t, "epan_ratio1", {"n": "10000"}, shift(0.05, "{:.4f}"))),
            (2, 1, "lognormal b=0.4 n0 + 1", lambda t: perturb(t, "n0", {"b": "0.4"}, lambda c: str(int(c) + 1))),
            (3, 0, "skew-mise constant + 0.003", lambda t: perturb(t, "n_mise_limit", {}, shift(0.003))),
        ]
    if workload == "curves":
        return _figure_cases(commands)
    cases = []
    for k, cmd in enumerate(commands):
        kernel, n = cmd.argv[4], int(cmd.argv[6])
        _, hi = checks.exact_real_mise(kernel, n)

        def beyond(text, hi=hi):
            se = float(checks._rows(text)[0]["std_error"])
            return perturb(text, "value", {}, lambda c: f"{hi + 4.5 * se:.10g}")

        cases.append((k, 0, f"mc {kernel} n={n}: estimate 4.5 se above the exact value", beyond))
    return cases


def main() -> int:
    missed = 0
    for workload, make in run.WORKLOADS.items():
        commands = make(SEED)
        outputs = []
        for cmd in commands:
            _, report, out, err = run.run_child(cmd, None)
            if report is None:
                print(f"{workload}: {' '.join(cmd.argv)} did not run: {err}")
                return 1
            outputs.append(out)
        for k, op, what, change in cases_for(workload, commands):
            before = commands[k].check(outputs[k])
            after = commands[k].check(change(outputs[k]))
            others = [j for j in range(len(before)) if j != op]
            caught = before[op] is None and after[op] is not None and all(after[j] == before[j] for j in others)
            missed += not caught
            print(f"{'caught' if caught else 'MISSED'}: {workload}: {what}")
        # the repeated-output check: a first round that printed something else
        rnd = run.run_round(commands[-1:], [outputs[-1].replace("\n", "\n ", 1)], None)
        caught = rnd.failed == rnd.attempted
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}: {workload}: output differing from the first round")
    print("selftest: all perturbations caught" if not missed else f"selftest: {missed} perturbations MISSED")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
