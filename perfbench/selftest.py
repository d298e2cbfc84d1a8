#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of a checkout. It checks three things and exits 1 if one
fails:

1. Calibration guard: one call of the calibration kernel allocates zero
   words (kernel_test.exe).
2. Determinism: two short traced runs of each workload with the same seed
   report identical count metrics (statements, rows read and written, rows
   renumbered, catalog bumps, plan-cache hit ratio, WAL bytes, fsyncs,
   replayed statements, minor words, paper-shape counts). The count of
   major collections is left out: the OCaml 5 runtime does not repeat it
   exactly from run to run.
3. Seeds matter: a different seed changes the generated operations (the
   digest of the operation sequence each run prints).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

WORKLOADS = ["read-hot", "read-varied", "edit-durable"]
COUNT_PREFIXES = (
    "stmts_per_op", "catalog_bumps_per_op", "plan_cache_hit_ratio",
    "rows_read_per_op", "rows_renumbered_per_edit", "stmts_per_edit",
    "rows_written_per_edit", "wal_bytes_per_edit", "fsyncs_per_edit",
    "replayed_statements", "minor_words_per_op", "q7_rows_read",
    "q8_rows_read", "front_insert_rows_renumbered",
)


def bench_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["command"]


def counts(workload, seed, seconds):
    cmd = bench_command() + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("selftest: %s seed %d exited %d"
                         % (workload, seed, out.returncode))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("selftest: %s seed %d gave wrong answers"
                         % (workload, seed))
    digest = [l.split()[-1] for l in lines if l.startswith("# ops digest")]
    return digest, {name: m["value"] for name, m in result["metrics"].items()
                    if name.startswith(COUNT_PREFIXES)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    if not run.build():
        return 2
    ok = True
    kernel = subprocess.run([run.exe("kernel_test.exe")])
    if kernel.returncode != 0:
        print("FAIL calibration kernel allocates")
        ok = False
    for w in WORKLOADS:
        ops_a, a = counts(w, 1, args.seconds)
        _, b = counts(w, 1, args.seconds)
        ops_c, _ = counts(w, 2, args.seconds)
        diff = sorted(k for k in a if a[k] != b[k])
        if diff:
            ok = False
            print("FAIL %s: counts differ between two runs of seed 1: %s"
                  % (w, ", ".join("%s %r/%r" % (k, a[k], b[k]) for k in diff)))
        else:
            print("ok   %s: %d count metrics repeat exactly" % (w, len(a)))
        if ops_a == ops_c:
            ok = False
            print("FAIL %s: seed 2 draws the same operations as seed 1" % w)
        else:
            print("ok   %s: seed 2 changes the operations" % w)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
