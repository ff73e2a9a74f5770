#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: solo-train, serve-train, fleet-churn (see perfbench/README.md).

The driver is compiled from this checkout's sources into the build
directory named by CARGO_TARGET_DIR (default: .bench_build) under the
repository root; an up-to-date build is a no-op. Build output goes to
stderr. The driver's stdout is passed through: its last line is the JSON
result object. A traced run (--trace 1) also writes a Perfetto-loadable
trace to <build dir>/traces/<workload>-seed<n>.json.

Exits non-zero, without printing a result, when the sources are missing,
the build fails, the arguments are invalid, or the driver fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo-train", "serve-train", "fleet-churn")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = configured if os.path.isabs(configured) else os.path.join(ROOT, configured)
    return os.path.join(path, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("project sources (src/) not found next to perfbench/; "
             "run from a full repository checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    driver = os.path.join(out_dir, "perfbench_driver")
    if not os.path.isfile(driver):
        fail("build produced no perfbench_driver")
    return driver


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    out_dir = build_dir()
    driver = build(out_dir)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"driver exited with code {done.returncode}")


if __name__ == "__main__":
    main()
