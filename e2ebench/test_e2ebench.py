#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 e2ebench/test_e2ebench.py [--seed N] [--updates N]

Run from the root of a checkout.  Builds e2e_delta (as run.py does), runs
its generator self-test, then runs grow_1m twice with one seed and checks
that the deterministic work counts of the two runs are identical.  Exit
status 0 when everything passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run

DETERMINISTIC = (
    "delta.damage_per_update",
    "session.examined_per_update",
    "session.verify_rounds_per_update",
    "wal.bytes_per_update",
    "codec.record_bytes",
)


def grow_counts(seed, updates, tag):
    work = os.path.join(run.BUILD, "work", f"test-{os.getpid()}-{tag}")
    trace = os.path.join(run.BUILD, f"test-trace-{os.getpid()}-{tag}.json")
    try:
        res = subprocess.run(
            [run.BINARY, "--workload=grow_1m", f"--seed={seed}",
             f"--updates={updates}", "--setups=1", "--trace=1",
             f"--trace-out={trace}", f"--work-dir={work}"],
            capture_output=True, text=True, timeout=600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(trace):
            os.remove(trace)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if res.returncode != 0 or not out["correct"]:
        sys.exit(f"grow_1m run {tag} failed: {out['failures']}")
    return {k: out["layers"][k] for k in DETERMINISTIC}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--updates", type=int, default=6)
    args = ap.parse_args()

    run.build()
    if subprocess.run([run.BINARY, "--selftest"]).returncode != 0:
        sys.exit("generator self-test failed")

    first = grow_counts(args.seed, args.updates, "a")
    second = grow_counts(args.seed, args.updates, "b")
    ok = True
    for name in DETERMINISTIC:
        same = first[name] == second[name]
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {name}: {first[name]!r} vs "
              f"{second[name]!r}")
    if not ok:
        sys.exit("deterministic counts differ between two runs of one seed")
    print("test_e2ebench: PASS")


if __name__ == "__main__":
    main()
