#!/usr/bin/env python3
"""Wall-clock SpeedyBox benchmark.

    python3 perfbench/run.py --workload hot-fastpath --seed 1 --seconds 30 --trace 0

Builds the perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs it.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. `failed / attempted` is the error
fraction: packets whose output differed from the original-mode reference,
were lost, or belonged to an executor run that threw. Every metric is a wall
clock measurement; none comes from the repository's cycle cost model. The
end-to-end throughput and latency are scaled by the rate of a reference
forwarder timed in the same run (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("hot-fastpath", "inspection")
# Set-up is timed in fresh processes, so lazy first-use costs count in every
# sample; the median of these is setup_s.
SETUP_SAMPLES = 5
MEASURE_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 10


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def binary():
    return os.path.join(build_dir(), "perfbench")


def build():
    """Configure once, then build the perfbench target; logs go to stderr.
    Compiler temporaries stay inside the build tree."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)


def last_json_line(args, timeout):
    proc = subprocess.run(args, check=True, timeout=timeout, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("no output from " + " ".join(args))
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run(args):
    build()
    exe = binary()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result = last_json_line(
        [exe, "measure", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", build_dir()],
        MEASURE_TIMEOUT_S)
    metrics = result["metrics"]
    if not args.trace:
        samples = [last_json_line([exe, "setup", *common],
                                  SETUP_TIMEOUT_S)["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        metrics["setup_s"] = {"value": statistics.median(samples),
                              "unit": "s"}

    want = expected_metrics(args.trace)
    if not result["correct"]:
        # A failed run still reports, so the failure shows; metrics the
        # binary could not measure read 0.
        for name, unit in want.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise RuntimeError("printed metrics/units %s differ from "
                           "BENCHMARK.json %s" % (got, want))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: metrics[name] for name in want}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
