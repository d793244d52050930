#!/usr/bin/env python3
"""The repository benchmark: one workload run, built from source.

Run from the repository root:

    python3 perfbench/run.py --workload native-w2 --seed 1 --seconds 10 --trace 0

It builds the library and the perfbench binary with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, checks every output, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. The traced run also writes its spans to
<build>/traces/<workload>-seed<seed>.json.

setup_s is the median of three cold set-ups, each in its own process, since
the library memoizes its searches in-process. Exits nonzero, without a
result line, when the build fails or a metric is missing, and with a result
line whose "correct" is false (and no metrics) when any output or kernel is
wrong.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "perfbench")


def run_binary(binary, args, timeout):
    """Run one perfbench process; returns (exit code, parsed last line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run timed out after {timeout} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return proc.returncode, record


def applies(metric, workload):
    """Whether a per-layer metric's layer does work on the workload; the
    others print 0, so every traced run carries every per_layer name."""
    if metric.startswith("serve."):
        return workload == "serve-native"
    if metric.startswith(("core.graph.", "armkern.")):
        return workload == "graph-w2"
    if metric.startswith("hal.layer.") or metric == "core.dispatch_us":
        return workload.startswith("native-")
    if metric.startswith("hal.") or metric == "core.plan_s":
        return workload != "graph-w2"
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, rec = run_binary(binary, common + ["--setup-only"],
                                   RUN_TIMEOUT_S)
            if code != 0 or rec is None:
                log("set-up run failed")
                return 1
            setup_samples.append(rec["setup_s"])
    main_args = list(common)
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        main_args += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    code, rec = run_binary(binary, main_args, RUN_TIMEOUT_S)
    if rec is None:
        log(f"workload run exited {code} without a result")
        return 1
    setup_samples.append(rec["setup_s"])

    if code != 0 or not rec["correct"]:
        # A wrong output or kernel: report the failure, not the timings.
        print(json.dumps({"correct": False,
                          "attempted": int(rec["attempted"]),
                          "failed": int(rec["failed"]), "metrics": {}}))
        return 1
    known = {m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]}
    unknown = sorted(set(rec["metrics"]) - known)
    if unknown:
        log("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
        return 1
    measured = dict(rec["metrics"])
    measured["setup_s"] = {"value": statistics.median(setup_samples),
                           "unit": "s"}
    if not args.trace:
        log("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in measured:
            if args.trace and not applies(name, args.workload):
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            log(f"workload did not report {name}")
            return 1
        got = measured[name]
        if got["unit"] != unit or not math.isfinite(got["value"]):
            log(f"{name}: reported {got} but BENCHMARK.json says {unit}")
            return 1
        metrics[name] = got
    for name, m in metrics.items():
        log(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": int(rec["attempted"]),
                      "failed": int(rec["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
