#!/usr/bin/env python3
"""Entry point of the repository benchmark (the "command" of BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds perfbench from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes its report through.  The last line printed is one JSON
object with "correct", "attempted", "failed" and "metrics": the end-to-end
metrics BENCHMARK.json declares for an untraced run, its per-layer metrics
for a traced one.  A traced run also prints the tracing overhead against the
last untraced run of the same workload.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    out = os.path.join(ROOT, out) if not os.path.isabs(out) else out
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", SOURCE, "-B", out, *gen, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "--", "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.self_test:
        out = build("perfbench_selftest")
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    out = build("perfbench")
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", runs]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    measured = result["metrics"]
    saved = os.path.join(runs, f"{args.workload}.untraced.json")
    if args.trace:
        declared = spec["per_layer"]
        if os.path.exists(saved):
            with open(saved) as f:
                base = json.load(f)
            print(f"  tracing overhead, traced vs untraced seed {base['seed']}:")
            for name, m in measured.items():
                if m["end_to_end"] and m["value"] is not None and base["metrics"].get(name):
                    was = base["metrics"][name]
                    print(f"    {name:<34} {m['value']:12.6g} vs {was:12.6g}"
                          f" ({(m['value'] - was) / was:+.1%})")
        else:
            print("  tracing overhead: no untraced run of this workload yet")
    else:
        declared = spec["end_to_end"]
        with open(saved, "w") as f:
            json.dump({"seed": args.seed, "metrics": {
                n: m["value"] for n, m in measured.items() if m["end_to_end"]}}, f)

    metrics = {}
    for d in declared:
        m = measured.get(d["name"])
        if m is None or m["value"] is None:
            fail(f"perfbench did not report {d['name']}")
        metrics[d["name"]] = {"value": m["value"], "unit": d["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
