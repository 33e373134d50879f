#!/usr/bin/env python3
"""Builds the benchmark binary from source (Release) and runs one workload.

    python3 perfbench/run.py --workload hard_cases --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is the run's result object
{"correct", "attempted", "failed", "metrics"}. --all runs every workload and
prints one table instead. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ["hard_cases", "fixed_sweep", "serve_zipf"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no source tree at %s/src" % ROOT, file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: %s" % " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def source_stamp():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the binary is built from, for checkouts that are not one."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".json", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "git=%s src_sha256=%s" % (commit, digest.hexdigest()[:16])


def run_one(binary, out, workload, seed, seconds, trace, stamp, echo=True):
    """Runs one workload; returns (exit code, result object or None)."""
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference-dir", os.path.join(BENCH, "reference"),
           "--out-dir", runs, "--source", stamp]
    try:
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 3, None
    sys.stderr.write(got.stderr)
    lines = got.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if echo:
        for line in lines:
            print(line)
    return got.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    stamp = source_stamp()

    if not args.all:
        code, result = run_one(binary, out, args.workload, args.seed,
                               args.seconds, args.trace, stamp)
        return code if result is not None else (code or 2)

    worst = 0
    table = []
    for workload in WORKLOADS:
        code, result = run_one(binary, out, workload, args.seed, args.seconds,
                               args.trace, stamp, echo=False)
        worst = max(worst, code if result is not None else 2)
        if result is None:
            table.append((workload, "error", float("nan"), "exit %d" % code))
            continue
        for name, metric in result["metrics"].items():
            table.append((workload, name, metric["value"], metric["unit"]))
        table.append((workload, "failed_frac",
                      result["failed"] / max(1, result["attempted"]), "fraction"))
    print("stamp: %s, seed %d, %g s per workload, trace %d"
          % (stamp, args.seed, args.seconds, args.trace))
    for workload, name, value, unit in table:
        print("%-12s %-40s %18.6f %s" % (workload, name, value, unit))
    return worst


if __name__ == "__main__":
    sys.exit(main())
