#!/usr/bin/env python3
"""Gate the engine throughput of traced perfbench passes against the
previous run's.

Usage: perf_gate.py PREVIOUS CURRENT...

Every CURRENT file holds result lines, one per traced pass: the last line
of ``python3 perfbench/run.py --workload stability --trace 1``, which is
``{"correct", "attempted", "failed", "metrics"}`` with ``metrics`` mapping
each per-layer metric to ``{"value", "unit"}``. PREVIOUS is such a file or
a directory searched recursively for ``*.jsonl`` (the downloaded artifact
of the last successful run on main).

The script takes the median of every metric over the passes on each side
and prints a GitHub-flavoured markdown table of every per-layer metric
``BENCHMARK.json`` lists (pipe it into ``$GITHUB_STEP_SUMMARY``), reading
each metric's unit and ``better`` direction from that file. It exits
nonzero when

* the median of an ``Mcc/s`` metric (an engine path's simulated
  cell-cycles per second) is worse than the previous median by more than
  FAIL_PCT;
* a current pass has ``correct: false`` or ``failed > 0``;
* any input line is malformed: a corrupt artifact must not pass as an
  empty table.

Without a previous artifact (a missing path or a directory with no
``*.jsonl``) the throughput comparison is skipped; the other two checks
still apply.
"""

import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAIL_PCT = 25.0
GATED_UNIT = "Mcc/s"


class MalformedInput(Exception):
    """A result file held a line the gate cannot use."""


def parse_line(where: str, line: str) -> tuple:
    """(correct, {metric: value}) from one result line."""
    try:
        row = json.loads(line)
        correct = row["correct"] is True and row["failed"] == 0
        values = {name: m["value"] for name, m in row["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MalformedInput(f"{where}: {exc!r}: {line[:120]!r}") from exc
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise MalformedInput(f"{where}: metric {name} has value {value!r}")
    return correct, values


def load_runs(path: pathlib.Path) -> list:
    """Every (correct, values) pass in one file, or in every *.jsonl under
    a directory."""
    files = sorted(path.rglob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for f in files:
        lines = f.read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                runs.append(parse_line(f"{f}:{lineno}", line))
    return runs


def medians(runs: list) -> dict:
    names = {name for _, values in runs for name in values}
    return {
        name: statistics.median(v[name] for _, v in runs if name in v)
        for name in names
    }


def worse_pct(previous: float, current: float, better: str) -> float:
    """How much worse `current` is than `previous`, in percent (negative
    when it is better)."""
    if previous == 0:
        return 0.0
    change = (current - previous) / previous * 100.0
    return -change if better == "higher" else change


def show(value) -> str:
    return "—" if value is None else f"{value:.4g}"


def main() -> int:
    if len(sys.argv) < 3:
        print(f"usage: {sys.argv[0]} PREVIOUS CURRENT...", file=sys.stderr)
        return 2
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    previous_path = pathlib.Path(sys.argv[1])
    try:
        previous = load_runs(previous_path) if previous_path.exists() else []
        current = [run for arg in sys.argv[2:] for run in load_runs(pathlib.Path(arg))]
    except (MalformedInput, OSError) as exc:
        print(f"::error title=Perf gate::malformed input: {exc}", file=sys.stderr)
        return 1

    errors = []
    if not current:
        errors.append("no current pass to gate")
    incorrect = sum(1 for correct, _ in current if not correct)
    if incorrect:
        errors.append(f"{incorrect} of {len(current)} current passes are incorrect")

    before, after = medians(previous), medians(current)
    print(f"## Traced perfbench: median of {len(current)} passes vs. "
          f"{len(previous)} previous\n")
    if not previous:
        print("_No previous-run artifact; the throughput gate is advisory._\n")
    print("| metric | unit | previous | current | change |")
    print("|---|---|---:|---:|---:|")
    for layer in layers:
        name, unit = layer["name"], layer["unit"]
        gated = unit == GATED_UNIT
        prev, cur = before.get(name), after.get(name)
        if cur is None:
            if gated and current:
                errors.append(f"{name} is missing from the current passes")
            change = "missing"
        elif prev is None:
            change = "new"
        else:
            worse = worse_pct(prev, cur, layer["better"])
            change = f"{abs(worse):.1f}% " + ("worse" if worse > 0 else "better")
            if gated and worse > FAIL_PCT:
                change += " ❌"
                errors.append(f"{name} median is {worse:.1f}% worse than the "
                              f"previous run's (gate {FAIL_PCT:.0f}%)")
        print(f"| `{name}` | {unit} | {show(prev)} | {show(cur)} | {change} |")

    for error in errors:
        print(f"::error title=Perf gate::{error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
