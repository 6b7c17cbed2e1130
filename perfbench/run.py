#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet|tenants|kernel --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark from source into `.bench_build/perfbench`
(Release, same compile flags as the root project) and runs the helper
self-test; later calls rebuild incrementally. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the build, the self-test or any correctness check
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Per-run limit; the driver's own limit is 180 s (900 s for a build).
RUN_TIMEOUT_S = 170


def sh(cmd, timeout):
    """Runs `cmd` with stdout sent to stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    sh(["cmake", "--build", BUILD, "-j", jobs], 700)
    sh([os.path.join(BUILD, "perfbench_selftest")], 60)


def check_result(stdout, trace):
    """The JSON line must carry exactly the metrics BENCHMARK.json lists for
    this mode, with the listed units. Returns an error string or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON result line"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet", "tenants", "kernel"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    try:
        build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    error = check_result(proc.stdout, args.trace)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
