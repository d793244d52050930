#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json twice with the same seed, untraced and
traced, for one second each, and checks that

  * the metric names each run prints are exactly BENCHMARK.json's
    end_to_end (untraced) or per_layer (traced) names, with their units;
  * the deterministic quantities repeat exactly: modeled_ms, the graph's
    node modeled times, packed and computed bytes, fused_convs, the joint
    search margin, the arena size.

Takes several minutes: every run still does its set-ups, reference checks
and emulation.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

DETERMINISTIC_E2E = {"modeled_ms"}
DETERMINISTIC_LAYER_PREFIXES = ("core.graph.node.",)
DETERMINISTIC_LAYER = {
    "hal.computed_mb", "hal.packed_weight_mb", "core.graph.unfused_modeled_ms",
    "core.graph.fusion_saving_pct", "core.graph.fused_convs",
    "core.graph.arena_kb", "armkern.joint_margin_pct",
}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(name, trace):
    if not trace:
        return name in DETERMINISTIC_E2E
    return (name in DETERMINISTIC_LAYER or
            name.startswith(DETERMINISTIC_LAYER_PREFIXES))


class BenchmarkTest(unittest.TestCase):
    def check_workload(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            first, second = run(workload, trace), run(workload, trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for rec in (first, second):
                # Late answers on a busy host count as failed, not as wrong.
                self.assertTrue(rec["correct"])
                self.assertGreaterEqual(rec["attempted"], 1)
                got = {k: v["unit"] for k, v in rec["metrics"].items()}
                self.assertEqual(got, want)
            for name in want:
                if deterministic(name, trace):
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"],
                                     f"{workload}: {name} did not repeat")

    def test_spec_names_unique(self):
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in SPEC[k]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])


for _w in WORKLOADS:
    setattr(BenchmarkTest, "test_" + _w.replace("-", "_"),
            lambda self, w=_w: self.check_workload(w))

if __name__ == "__main__":
    unittest.main(verbosity=2)
