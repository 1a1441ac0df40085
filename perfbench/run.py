#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload repro|tune_refine|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark compiles its own Release copy
of the library from ../src with perfbench/CMakeLists.txt into the build
directory ($CARGO_TARGET_DIR when set, else .bench_build), then runs one
workload in one process with one worker thread. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; build logs
go to stderr. A failed build or run exits non-zero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def work_dir():
    """The build directory as the benchmark binary should name it: relative to
    the working directory when inside it, so Unix socket paths stay short."""
    rel = os.path.relpath(build_dir())
    return build_dir() if rel.startswith("..") else rel


def build(target):
    """Configure + build `target`; returns the binary path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "none"


def child_env():
    env = dict(os.environ)
    env["BINE_THREADS"] = "1"
    env.pop("BINE_FAULT_SPEC", None)
    env.pop("BINE_SCHED_CACHE", None)
    env["PERFBENCH_GIT_DESCRIBE"] = git_describe()
    env["PERFBENCH_WORK_DIR"] = work_dir()
    return env


def run(cmd):
    """Run the benchmark binary, passing its stdout through; returns its exit code."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own test of its checks")
    args = ap.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        return 1 if binary is None else run([binary])

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build("perfbench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work_dir()]
    if args.trace == "1":
        cmd += ["--trace-file",
                os.path.join(build_dir(), "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
