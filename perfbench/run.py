#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --calib-nominal-ms MS \
        --workload read-hot|read-varied|edit-durable \
        --seed N --seconds S --trace 0|1

MS is the kernel time calibrated timings are expressed against (see
perfbench/calib.ml); it is fixed once, in the command of BENCHMARK.json.

Run from the root of a checkout. The benchmark is built with dune into
.bench_build/ and its stores live under .bench_tmp/, both inside the
checkout. Everything the benchmark prints goes to standard output; its last
line is the JSON result. The exit code is the benchmark's, or 2 when the
build fails (for instance in a directory without the program's sources).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGETS = ["./perfbench/xbench.exe", "./perfbench/kernel_test.exe"]


def exe(name):
    return os.path.join(BUILD_DIR, "default", "perfbench", name)


def build():
    """Build xbench.exe and kernel_test.exe; return True on success."""
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet"] + TARGETS
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.exists(exe("xbench.exe"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--calib-nominal-ms", type=float, required=True)
    args = ap.parse_args()
    if not build():
        return 2
    cmd = [exe("xbench.exe"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--calib-nominal-ms", repr(args.calib_nominal_ms)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
