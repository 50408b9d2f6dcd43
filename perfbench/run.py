#!/usr/bin/env python3
"""The repository benchmark: four workloads, each dominated by a different
layer, with every output checked byte for byte against an oracle.

Run from the repository root:

    python3 perfbench/run.py --workload stability --seed 0 --seconds 10 --trace 0

--workload   stability, saturation, classify or serve (see README.md).
--seed       0 keeps each workload's default seed, whose outputs are the
             committed artifacts; any other seed is checked against a
             single-thread run of the same example or campaign at that seed.
--seconds    how long the end-to-end runs are repeated (at least 3 runs).
--trace      0 measures the end-to-end metrics; 1 runs the traced
             single-thread pass over every workload and reports the
             per-layer metrics.
--tiny       shrinks every grid; used by perfbench/test_bench.py.

The benchmark builds the examples and the perfbench package first (into
$CARGO_TARGET_DIR, default `target`). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it records provenance.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("stability", "saturation", "classify", "serve")
EXAMPLES = {
    "stability": "stability_sweep",
    "saturation": "saturation_curve",
    "classify": "classify_sweep",
}
ARTIFACTS = {
    "stability": "stability.json",
    "saturation": "saturation.json",
    "classify": "classification.json",
}
# classify_sweep has no BENCH_QUICK sizing; perfbench's `--tiny` classify
# grid mirrors exactly these flags.
TINY_CLASSIFY = [
    "--max-stages", "6", "--random-samples", "1", "--random-max-stages", "4",
    "--benes-max-n", "3", "--rewrite-stages", "3",
]
MIN_RUNS = 3
# Set-up takes microseconds to a millisecond, so its timing depends on the
# process's memory layout as much as on the code: report the median over
# several processes.
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 170
# Inputs whose bytes identify the code under test, for the provenance
# record when the checkout is not a git repository.
SOURCES = (".cargo", "Cargo.lock", "Cargo.toml", "crates", "examples",
           "perfbench", "rust-toolchain.toml", "src", "vendor")


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


class Tools:
    """Where the binaries are built, and the environment they run in."""

    def __init__(self, tiny):
        self.target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
        self.env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        self.env.pop("BENCH_QUICK", None)
        if tiny:
            self.env["BENCH_QUICK"] = "1"
        self.perfbench = os.path.join(self.target, "release", "perfbench")

    def example(self, workload):
        return os.path.join(self.target, "release", "examples", EXAMPLES[workload])

    def build(self):
        manifest = os.path.join(ROOT, "Cargo.toml")
        if not os.path.isfile(manifest):
            raise BenchError(f"{manifest} is missing: nothing to build")
        examples = [arg for name in EXAMPLES.values() for arg in ("--example", name)]
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
             "-p", "baseline-equivalence", *examples],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ):
            if subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr).returncode:
                raise BenchError("build failed: " + " ".join(cmd))


def run_child(cmd, env, stdout=subprocess.DEVNULL):
    """Runs `cmd` to completion: (exit code, wall s, CPU s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def perfbench(tools, *args):
    """Runs a perfbench subcommand and parses its last line of output."""
    proc = subprocess.run([tools.perfbench, *args], cwd=ROOT, env=tools.env,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"perfbench {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def read(path):
    with open(path, "rb") as f:
        return f.read()


def example_cmd(tools, workload, args, threads, out):
    cmd = [tools.example(workload), "--threads", str(threads), "--out", out]
    if args.seed:
        cmd += ["--seed", str(args.seed)]
    if args.tiny and workload == "classify":
        cmd += TINY_CLASSIFY
    return cmd


def seed_args(args):
    return ["--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])


def oracle(tools, workload, args, scratch):
    """The bytes a correct run of `workload` writes, computed untimed: the
    committed artifact at the default seed, otherwise a single-thread run."""
    if workload != "serve" and args.seed == 0 and not args.tiny:
        return read(os.path.join(ROOT, ARTIFACTS[workload]))
    path = os.path.join(scratch, f"oracle-{workload}.json")
    if workload == "serve":
        perfbench(tools, "oracle", *seed_args(args), "--out", path)
    else:
        code = run_child(example_cmd(tools, workload, args, 1, path), tools.env)[0]
        if code:
            raise BenchError(f"{workload}: single-thread oracle run exited {code}")
    return read(path)


def end_to_end(tools, args, scratch):
    """Repeats the workload for --seconds (at least MIN_RUNS times) and
    reports medians over the runs whose output matched the oracle."""
    expected = oracle(tools, args.workload, args, scratch)
    setups = [perfbench(tools, "setup", "--workload", args.workload, *seed_args(args))
              for _ in range(SETUP_PROCESSES)]
    out = os.path.join(scratch, "out.json")
    log_path = os.path.join(scratch, "serve.log")
    walls, cpus, rss = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while attempted < MIN_RUNS or time.perf_counter() < deadline:
        attempted += 1
        if os.path.exists(out):
            os.remove(out)
        if args.workload == "serve":
            cmd = [tools.perfbench, "serve", *seed_args(args),
                   "--workers", str(max(1, nproc() - 1)), "--out", out]
            with open(log_path, "wb") as log_file:
                code, wall, cpu, peak = run_child(cmd, tools.env, log_file)
            if code == 0:
                # From master bind to report in hand, measured inside the
                # process; it leaves out process start and worker shutdown.
                wall = json.loads(read(log_path).decode().strip().splitlines()[-1])["wall_s"]
        else:
            cmd = example_cmd(tools, args.workload, args, nproc(), out)
            code, wall, cpu, peak = run_child(cmd, tools.env)
        if code == 0 and os.path.exists(out) and read(out) == expected:
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
        else:
            failed += 1
            log(f"run {attempted}: exit {code}, output {'missing' if code else 'differs'}")
    if not walls:
        raise BenchError("no run produced the expected output")
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "work_per_s": (setups[0]["work"] / wall_s, "1/s"),
    }
    return attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(tools, args, scratch):
    """The traced single-thread pass over every workload; perfbench checks
    each output against the same oracle the end-to-end runs use."""
    cmd = ["trace", *seed_args(args)]
    for workload in WORKLOADS:
        path = os.path.join(scratch, f"expect-{workload}.json")
        with open(path, "wb") as f:
            f.write(oracle(tools, workload, args, scratch))
        cmd += [f"--expect-{workload}", path]
    try:
        return 1, 0, perfbench(tools, *cmd)["metrics"]
    except BenchError as error:
        log(str(error))
        return 1, 1, {}


def check_names(metrics, kind):
    """Every metric BENCHMARK.json lists under `kind`, with its unit, and
    no other."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        want = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}, unit changed {units}")


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            files += [os.path.join(base, n) for n in sorted(names)]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0" + read(name))
    return digest.hexdigest()


def provenance(tools):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=tools.env, capture_output=True,
                                 text=True, timeout=60).stdout
            return out.strip().splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rustflags = "unknown"
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as f:
            rustflags = next(l.strip() for l in f if l.strip().startswith("rustflags"))
    except (OSError, StopIteration):
        pass
    git = os.path.isdir(os.path.join(ROOT, ".git"))
    return {
        "git_sha": first_line(["git", "rev-parse", "HEAD"]) if git else "not a git checkout",
        "source_sha256": source_digest(),
        "nproc": nproc(),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "-V"]),
        "rustflags": rustflags,
        "threads": nproc(),
        "workers": max(1, nproc() - 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    args.seed %= 1 << 64
    tools = Tools(args.tiny)
    try:
        tools.build()
        os.makedirs(OUT_DIR, exist_ok=True)
        scratch = tempfile.mkdtemp(dir=OUT_DIR)
        try:
            if args.trace:
                attempted, failed, metrics = traced(tools, args, scratch)
            else:
                attempted, failed, metrics = end_to_end(tools, args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not failed:
            check_names(metrics, "per_layer" if args.trace else "end_to_end")
        record = provenance(tools)
    except BenchError as error:
        log(str(error))
        sys.exit(1)
    print(json.dumps({"provenance": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
