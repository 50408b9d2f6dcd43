#!/usr/bin/env python3
"""Record an end-to-end benchmark comparison in BENCH_e2e.json, or check
the file.

    python3 scripts/bench_record.py BASE [HEAD] [--workload stability]
        [--pairs 5] [--label TEXT] [--scratch DIR]
    python3 scripts/bench_record.py --check

The writer exports both revisions with `git archive` into a scratch
directory (each builds into its own `target/`), then runs
`perfbench/run.py --workload W --seed S --seconds N --trace 0` in both at
seeds 0 and 7, with BENCHMARK.json's run length N, `--pairs` times per
seed, alternating which side runs first (the second run of a pair tends to
read slower on a shared box). Each pair keeps both sides' end-to-end
medians as perfbench reports them. It appends one record to
BENCH_e2e.json: the revisions, the workload, the seeds and run length,
every pair in run order, the medians, quartiles and head wins over the
pairs, and perfbench's provenance line for the head run.

`--check` validates the schema and that every record's medians,
quartiles and wins follow from its pairs. It never judges the numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "BENCH_e2e.json")
SEEDS = (0, 7)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SECONDS = json.load(f)["run_seconds"]
# perfbench's end-to-end metrics and which way is better.
BETTER = {
    "wall_s": "lower",
    "setup_s": "lower",
    "cpu_s": "lower",
    "peak_rss_mb": "lower",
    "work_per_s": "higher",
}
REQUIRED = {
    "label": str,
    "base": str,
    "head": str,
    "workload": str,
    "seeds": list,
    "seconds": (int, float),
    "better": dict,
    "pairs": list,
    "medians": dict,
}
TOLERANCE = 1e-9


def fail(message):
    print(f"bench_record: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, scratch):
    """Exports `rev` into its own directory under `scratch`."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(scratch, sha[:12])
    if not os.path.isdir(path):
        os.makedirs(path)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        if archive.wait():
            fail(f"git archive {rev} failed")
    return sha, path


def run_perfbench(path, workload, seed):
    """One `perfbench/run.py` end-to-end run; returns (metrics, provenance)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or len(lines) < 2:
        fail(f"{' '.join(cmd)} in {path} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail(f"{workload} seed {seed} in {path}: an output differed from its oracle")
    metrics = {name: m["value"] for name, m in result["metrics"].items() if name in BETTER}
    return metrics, json.loads(lines[-2])["provenance"]


def quartiles(values):
    if len(values) == 1:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def head_wins(pair, metric, better):
    base, head = pair["base"][metric], pair["head"][metric]
    return head < base if better == "lower" else head > base


def summarize(pairs, better):
    """The medians, quartiles and head wins a record's pairs imply."""
    sides = ("base", "head")
    return {
        "medians": {s: {m: statistics.median(p[s][m] for p in pairs) for m in better}
                    for s in sides},
        "quartiles": {s: {m: quartiles([p[s][m] for p in pairs]) for m in better}
                      for s in sides},
        "wins": {m: sum(head_wins(p, m, b) for p in pairs) for m, b in better.items()},
    }


def record(args):
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench_record.")
    print(f"bench_record: building and running in {scratch}", file=sys.stderr)
    base_sha, base_path = export(args.base, scratch)
    head_sha, head_path = export(args.head, scratch)
    pairs, provenance = [], None
    for i in range(args.pairs):
        for seed in SEEDS:
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                path = base_path if side == "base" else head_path
                pair[side], prov = run_perfbench(path, args.workload, seed)
                if side == "head":
                    provenance = prov
            pairs.append(pair)
            print(f"bench_record: {args.workload} seed {seed} pair {i + 1}: wall_s "
                  f"{pair['base']['wall_s']:.4f} -> {pair['head']['wall_s']:.4f}",
                  file=sys.stderr)
    better = {m: b for m, b in BETTER.items() if all(m in p["base"] for p in pairs)}
    entry = {
        "label": args.label,
        "base": base_sha,
        "head": head_sha,
        "workload": args.workload,
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "better": better,
        "pairs": pairs,
        **summarize(pairs, better),
        "provenance": provenance,
    }
    records = load(RECORDS) if os.path.exists(RECORDS) else []
    records.append(entry)
    with open(RECORDS, "w") as f:
        json.dump(records, f, indent=1)
        f.write("\n")
    medians = entry["medians"]
    print(f"{args.workload}: wall_s {medians['base']['wall_s']:.4f} -> "
          f"{medians['head']['wall_s']:.4f}, head wins {entry['wins']['wall_s']}/{len(pairs)}")


def load(path):
    with open(path) as f:
        records = json.load(f)
    if not isinstance(records, list):
        fail(f"{path}: expected a JSON array of records")
    return records


def close(a, b):
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def same(want, got):
    if isinstance(want, dict):
        return isinstance(got, dict) and want.keys() == got.keys() and all(
            same(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(
            same(w, g) for w, g in zip(want, got))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and close(want, got)
    return want == got


def check_record(r):
    for key, kind in REQUIRED.items():
        if not isinstance(r.get(key), kind) or isinstance(r.get(key), bool):
            return f"`{key}` missing or of the wrong type"
    better = r["better"]
    if not better or any(BETTER.get(m) != b for m, b in better.items()):
        return f"`better` must map end-to-end metrics to their direction: {better}"
    pairs = r["pairs"]
    if not pairs:
        return "a record needs its pairs"
    for i, p in enumerate(pairs):
        if p.get("seed") not in r["seeds"] or p.get("first") not in ("base", "head"):
            return f"pair {i}: bad `seed` or `first`"
        for side in ("base", "head"):
            values = p.get(side)
            if not isinstance(values, dict) or set(better) - set(values):
                return f"pair {i}: `{side}` lacks a metric of `better`"
    want = summarize(pairs, better)
    for key, value in want.items():
        if not same(value, r.get(key)):
            return f"`{key}` does not follow from the pairs: want {value}, got {r.get(key)}"
    return None


def check():
    records = load(RECORDS)
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            fail(f"{RECORDS}: record {i} is not an object")
        problem = check_record(r)
        if problem:
            fail(f"{RECORDS}: record {i} ({r.get('workload')}, {r.get('label')!r}): {problem}")
    print(f"{RECORDS}: {len(records)} records, medians, quartiles and wins follow from their pairs")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="base revision")
    parser.add_argument("head", nargs="?", default="HEAD", help="head revision (HEAD)")
    parser.add_argument("--check", action="store_true",
                        help="validate BENCH_e2e.json and exit")
    parser.add_argument("--workload", default="stability",
                        choices=("stability", "saturation", "classify", "serve"))
    parser.add_argument("--pairs", type=int, default=5, help="pairs per seed")
    parser.add_argument("--label", default="", help="what the head revision changes")
    parser.add_argument("--scratch", help="directory for the exported revisions")
    args = parser.parse_args()
    if args.check:
        check()
    elif args.base:
        record(args)
    else:
        parser.error("give BASE [HEAD], or --check")


if __name__ == "__main__":
    main()
