#!/usr/bin/env python3
"""The convgen benchmark: one command per workload run.

    python3 perfbench/run.py --workload table3|service_mix|tensor3_csf \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds libconvgen and the benchmark
binary from source into .bench_build/ (the first run builds; later runs
only check), gives the run a fresh, empty CONVGEN_CACHE_DIR and TMPDIR
under .bench_build/, pins OpenMP threads per workload, refuses to run
when a CONVGEN_* knob is set, prints a provenance stamp line, and prints
as its last line the JSON result of the run. BENCHMARK.json at the root
lists the workloads and metrics; perfbench/README.md explains them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Seconds the benchmark binary may take beyond --seconds (inputs, oracle
# outputs, set-up repetitions) before the run is abandoned.
RUN_SLACK_S = 120


def host_threads():
    return len(os.sched_getaffinity(0))


# OpenMP threads per request: table3 is the paper's serial comparison;
# service_mix runs two clients at one thread each; tensor3_csf runs one
# client on half the cores. Both leave cores free: on a shared host, a
# run that occupies every core stalls at OpenMP barriers whenever another
# tenant takes a core, and its times swing by several times.
def omp_threads(workload):
    return {"table3": 1, "service_mix": 1}.get(
        workload, max(1, host_threads() // 2))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(min(4, host_threads()))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        shutil.rmtree(BUILD, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def compiler_identity(env):
    compiler = env.get("CONVGEN_CC", "cc").split()
    try:
        out = subprocess.run(compiler + ["--version"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.splitlines()[0] if out else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The binary's result must carry exactly the declared metrics, every
    one a finite number, and every end-to-end one above 0. The binary
    prints a metric its workload never set as NaN."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in want if n in got and got[n] != want[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
        if not trace and value <= 0:
            fail("end-to-end metric %s is not above 0: %r" % (name, value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table3", "service_mix", "tensor3_csf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Smoke-test switches (perfbench/smoke_test.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    for required in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no convgen checkout at %s (missing %s)" % (ROOT, required))
    knobs = sorted(k for k in os.environ
                   if k.startswith("CONVGEN_") and k != "CONVGEN_CC")
    if knobs:
        fail("refusing to run with runtime knobs set: %s" % ", ".join(knobs))

    build()

    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    env = dict(os.environ)
    env["CONVGEN_CACHE_DIR"] = os.path.join(run_dir, "unused")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    env["OMP_NUM_THREADS"] = str(omp_threads(args.workload))

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine": "jit",
        "host_threads": host_threads(),
        "omp_threads": int(env["OMP_NUM_THREADS"]),
        "compiler": compiler_identity(env),
        "convgen_env": {k: v for k, v in sorted(env.items())
                        if k.startswith("CONVGEN_")},
        "omp_env": {k: v for k, v in sorted(env.items())
                    if k.startswith("OMP_")},
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-root", run_dir]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        command += ["--spans-out",
                    os.path.join(BUILD, "traces", args.workload + ".tsv")]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")

    # A terminated run raises SystemExit here, and subprocess.run then
    # kills and reaps the binary instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % (args.seconds + RUN_SLACK_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark binary exited with status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed no result")
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    print("# run took %.1f s" % (time.monotonic() - started))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
