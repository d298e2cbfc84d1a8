#!/usr/bin/env python3
"""Run one workload over several seeds and report, per metric, the median
and the spread (distance between first and third quartile, as a share of
the median) of the calibrated metric next to its raw twin.

    python3 perfbench/spread.py --workload read-hot --seeds 1-10 \
        [--seconds 10] [--out results.json]

Run from the root of a checkout. Each run is the command of BENCHMARK.json
with --trace 0; the calibrated values come from its JSON line, the raw twins and the
kernel time from the lines before it. Exits 1 if any run fails or reports
an incorrect answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_command():
    """The benchmark command exactly as BENCHMARK.json gives it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["command"]


def run_once(workload, seed, seconds):
    cmd = bench_command() + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: seed %d exit %d" % (seed, out.returncode))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result, printed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    runs = []
    for seed in seeds_of(args.seeds):
        result, printed = run_once(args.workload, seed, args.seconds)
        if not result["correct"] or result["failed"]:
            raise SystemExit("seed %d: incorrect result" % seed)
        runs.append({"seed": seed, "result": result, "printed": printed})
        print("seed %d done: calib_ms %.4f" % (seed, printed.get("calib_ms", 0)),
              file=sys.stderr)
    names = list(runs[0]["result"]["metrics"])
    print("%-34s %12s %8s %12s %8s" % ("metric", "median", "spread",
                                         "raw median", "raw spread"))
    for name in names:
        cal = [r["result"]["metrics"][name]["value"] for r in runs]
        med, spr = spread(cal)
        raw = [r["printed"].get("raw." + name) for r in runs]
        if None in raw:
            print("%-34s %12.4f %8.3f" % (name, med, spr))
        else:
            rmed, rspr = spread(raw)
            print("%-34s %12.4f %8.3f %12.4f %8.3f" % (name, med, spr, rmed, rspr))
    kernel = [r["printed"]["calib_ms"] for r in runs]
    kmed, kspr = spread(kernel)
    print("%-34s %12.4f %8.3f" % ("calib_ms", kmed, kspr))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
