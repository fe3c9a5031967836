#!/usr/bin/env python3
"""Smoke test of the convgen benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size for one second, untraced and traced, and
checks that each run is correct with no failed operation and prints every
metric BENCHMARK.json declares, with its unit and a finite value; that
every end-to-end metric is above 0; and that the per-layer metrics of the
layers each workload stresses are not 0. Then runs each workload once
with one expected output deliberately corrupted and checks that the run is
reported incorrect with failed operations, which proves the output checker
fires. Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that must not read 0: the layers each workload stresses
# (perfbench/README.md). Set-up layers are stressed by every workload.
SETUP = ["codegen.plan_ms", "jit.compile_s", "jit.compiles"]
JIT = ["jit.marshal_us", "jit.run_ms", "jit.collect_us", "jit.gbps_computed",
       "request_p99_ms", "throughput_rps"]
SERVED = ["plancache.hit_us", "plancache.hits", "planner.decide_us",
          "planner.engaged", "service.overhead_us"]
STRESSED = {
    "table3": SETUP + JIT + [
        "phase.insert_ms", "baselines.skit_ms_geomean",
        "baselines.mkl_ms_geomean", "table3.vs_skit_geomean",
        "table3.vs_mkl_geomean"] + [
        "table3.%s.vs_skit" % pair for pair in (
            "coo_csr", "coo_dia", "csr_csc", "csr_dia", "csr_ell",
            "csc_dia", "csc_ell")],
    "service_mix": SETUP + JIT + SERVED + ["planner.chosen.disengaged"],
    "tensor3_csf": SETUP + JIT + SERVED + [
        "phase.collect_ms", "phase.sort_ms", "phase.pos_ms", "phase.crd_ms"],
}


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (
            " ".join(command), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if result["correct"] is not True or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" % (
                    where, result["correct"], result["failed"]))
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (where, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, want %s" % (
                        where, m["name"], got["unit"], m["unit"]))
                elif not math.isfinite(got["value"]):
                    problems.append("%s: %s not finite" % (where, m["name"]))
                elif kind == "end_to_end" and got["value"] <= 0:
                    problems.append("%s: %s = %r, not above 0" % (
                        where, m["name"], got["value"]))
            if trace:
                for name in STRESSED[workload]:
                    if metrics.get(name, {}).get("value", 0) == 0:
                        problems.append("%s: stressed-layer metric %s is 0"
                                        % (where, name))
            if trace and metrics.get("fail_frac", {}).get("value") != 0:
                problems.append("%s: fail_frac %s" % (
                    where, metrics.get("fail_frac")))
        corrupt = run(workload, 0, "--corrupt-oracle")
        if corrupt["correct"] is not False or corrupt["failed"] < 1:
            problems.append("%s: a corrupted expected output went unnoticed "
                            "(correct=%s failed=%d)" % (
                                workload, corrupt["correct"],
                                corrupt["failed"]))
        print("%s: checked" % workload, flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
