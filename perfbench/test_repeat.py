#!/usr/bin/env python3
"""Checks that the benchmark's counts repeat exactly for one seed.

    python3 perfbench/test_repeat.py

For each workload: two end-to-end runs and two traced runs with the same
seed must report identical sizes (`size_pct`, `mem_pct`) and identical
counts (`layout.frags`, `repair.splits`, `approx.fits`, `partition.pairs`,
`sparkts.groups_planned`, `sparkts.groups_read`); a run with a second seed
must fail no operation. Exits 1 on any mismatch or failure.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SIZES = ["size_pct", "mem_pct"]
COUNTS = ["layout.frags", "repair.splits", "approx.fits", "partition.pairs",
          "sparkts.groups_planned", "sparkts.groups_read"]


def run(workload, seed, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace)],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for w in ("paper", "offset"):
        for trace, names in ((0, SIZES), (1, COUNTS)):
            a, b = run(w, 7, trace), run(w, 7, trace)
            for n in names:
                va, vb = (r["metrics"].get(n, {}).get("value") for r in (a, b))
                same = va is not None and va == vb
                ok &= same
                print(f"{w} seed 7 {n}: {va} / {vb} {'ok' if same else 'DIFFERENT'}")
            for r in (a, b):
                ok &= r["failed"] == 0
        second = run(w, 8, 0)
        clean = second["failed"] == 0 and second["correct"]
        ok &= clean
        print(f"{w} seed 8: {second['attempted']} operations, {second['failed']} failed "
              f"{'ok' if clean else 'FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
