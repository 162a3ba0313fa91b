#!/usr/bin/env python3
"""End-to-end delta benchmark: builds e2e_delta from this checkout's sources,
runs one workload and prints the result as the last stdout line.

    python3 e2ebench/run.py --workload grow_1m --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json from an untraced run.  --trace 1 reports its per-layer
metrics: an untraced reference run (for trace.overhead_pct) and a traced run,
whose Chrome trace is validated with scripts/check_trace.py and reduced to
per-layer self times here.  See e2ebench/README.md for what each metric
means.  Exit status is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "e2e_delta")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds e2e_delta (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        die(f"{ROOT} is not a gapart checkout (no CMakeLists.txt / src)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.join(BUILD, "cmake"),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.join(BUILD, "cmake"), "-j", jobs,
         "--target", "e2e_delta"],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
            die("build failed: " + " ".join(cmd))


def run_binary(args, setups, trace_out=None):
    """One e2e_delta process; traced when `trace_out` names the trace file.
    setups=0 keeps the workload's own set-up count."""
    work_dir = os.path.join(BUILD, "work", str(os.getpid()))
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={1 if trace_out else 0}",
           f"--setups={setups}", f"--work-dir={work_dir}"]
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        die(f"e2e_delta printed nothing (exit {res.returncode})")
    out = json.loads(lines[-1])
    if res.returncode != 0 and out.get("correct", False):
        die(f"e2e_delta exited {res.returncode}")
    return out


def self_times(events):
    """Per-span self time (duration minus direct children) and root span.

    Spans on one thread nest (check_trace.py enforces it), so a stack walk
    in start order finds each event's parent."""
    eps = 1e-2
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    out = []  # (name, root, dur_us, self_us)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -(e["ts"] + e["dur"])))
        stack = []  # [end_us, record]
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1][0] <= start + eps:
                stack.pop()
            parent = stack[-1][1] if stack else None
            rec = [ev["name"], parent[1] if parent else ev["name"], ev["dur"],
                   ev["dur"]]
            if parent:
                parent[3] -= ev["dur"]
            out.append(rec)
            stack.append([end, rec])
    return out


def trace_layers(path):
    """Per-layer metrics from the traced run's Chrome trace."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    total = {}  # (root or "*", name) -> [count, dur_us, self_us]
    for name, root, dur, self_us in self_times(events):
        for key in ((root, name), ("*", name)):
            t = total.setdefault(key, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += dur
            t[2] += self_us

    def get(root, name, field):
        return total.get((root, name), [0, 0.0, 0.0])[field]

    updates = max(1, get("client.ack", "client.ack", 0))

    def ack_self(name):  # ms of self time per update, on the ack path
        return get("client.ack", name, 2) / updates / 1e3

    def per_call(name):  # ms per call, wherever it ran
        return get("*", name, 1) / max(1, get("*", name, 0)) / 1e3

    ack_us = get("client.ack", "client.ack", 1)
    return {
        "graph.client_build_ms": ack_self("client.build"),
        "service.submit_ms": get("client.ack", "service.submit", 1) / updates / 1e3,
        "service.overhead_ms": ack_self("service.submit"),
        "session.repair_ms": get("client.ack", "repair.apply", 1) / updates / 1e3,
        "session.extend_ms": ack_self("repair.extend"),
        "session.rebind_ms": ack_self("repair.rebind"),
        "session.cascade_ms": ack_self("repair.cascade"),
        "session.verify_ms": ack_self("repair.verify"),
        "session.apply_self_ms": ack_self("repair.apply"),
        "wal.append_ms": ack_self("wal.append"),
        "wal.fsync_ms": ack_self("wal.fsync"),
        "wal.compact_ms": get("*", "wal.compact", 1) / updates / 1e3,
        "codec.encode_ms": per_call("codec.encode"),
        "codec.decode_ms": per_call("codec.decode"),
        "replication.ship_ms": get("*", "replication.ship", 2) / updates / 1e3,
        "replication.apply_ms": get("*", "replication.apply", 1) / updates / 1e3,
        "trace.unaccounted_pct":
            100.0 * get("client.ack", "client.ack", 2) / ack_us if ack_us else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("run from the checkout root (BENCHMARK.json not found)")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    build()

    if args.trace:
        wanted = spec["per_layer"]
        ref = run_binary(args, 1)
        trace_path = os.path.join(BUILD, f"trace-{args.workload}-{os.getpid()}.json")
        out = run_binary(args, 1, trace_path)
        values = dict(out["layers"])
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"),
             trace_path], capture_output=True, text=True)
        sys.stderr.write(check.stdout + check.stderr)
        out["attempted"] += 1
        if check.returncode != 0:
            out["failed"] += 1
            out["correct"] = False
            out["failures"].append("exported trace fails check_trace.py")
        values.update(trace_layers(trace_path))
        os.remove(trace_path)
        base = ref["e2e"]["ack_p50_ms"]
        values["trace.overhead_pct"] = (
            100.0 * (out["e2e"]["ack_p50_ms"] / base - 1.0) if base else 0.0)
        out["attempted"] += ref["attempted"]
        out["failed"] += ref["failed"]
        out["failures"] += ref["failures"]
        out["correct"] = out["correct"] and ref["correct"]
        if out["info"].get("trace_dropped_events", 0) > 0:
            print("e2ebench: WARNING: the tracer dropped events; layer "
                  "times are undercounted", file=sys.stderr)
    else:
        wanted = spec["end_to_end"]
        out = run_binary(args, 0)
        values = out["e2e"]

    for name, value in sorted(out["info"].items()):
        print(f"  info {name} = {value:g}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for failure in out["failures"]:
        print(f"  FAILED CHECK: {failure}")
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
