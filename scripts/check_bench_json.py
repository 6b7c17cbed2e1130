#!/usr/bin/env python3
"""Fail when the checked-in bench perf records are missing or malformed.

The golden benches append one machine-readable record each when run with
``--bench-json FILE`` (see ``BenchJsonReporter`` in ``bench/common.hpp``);
the ``bench-json`` build target regenerates the checked-in ``BENCH_*.json``
at the repository root. This check keeps that artifact honest: the file
must exist, parse as a JSON array, and every record must carry

    bench    non-empty string, unique across the file
    wall_s   non-negative finite number
    points   positive integer
    threads  positive integer

Extra keys (e.g. ``simd``, the active dispatch level recorded since
PR 7) are tolerated so newer records can carry more context without
invalidating older BENCH_*.json files. Known optional keys are still
shape-checked when present:

    cache_hit_rate   number in [0, 1] (prefix-cache benches)
    blocks_saved     non-negative number (prefix-cache benches)
    transfer_s       non-negative number (disaggregated-serving benches)
    migrations       non-negative number (disaggregated-serving benches)

Wall-times are machine-dependent by design and are NOT compared — only
shape is validated, so the check is deterministic across hosts.

The newest file (highest ``<n>`` in ``BENCH_<n>.json``) must also be the
one the docs and the build name: the ``latest:`` pointer in
``docs/performance.md`` and ``MARLIN_BENCH_JSON_NAME`` in
``bench/CMakeLists.txt``.

Usage:  check_bench_json.py [repo_root]
Exit status: 0 = every BENCH_*.json is well-formed, 1 = problems found.
"""

import glob
import json
import math
import os
import re
import sys


def check_record(path: str, i: int, rec: object, failures: list) -> str:
    where = f"{os.path.basename(path)}[{i}]"
    if not isinstance(rec, dict):
        failures.append(f"{where}: record is not a JSON object")
        return ""
    bench = rec.get("bench")
    if not isinstance(bench, str) or not bench:
        failures.append(f"{where}: `bench` must be a non-empty string")
        bench = ""
    wall = rec.get("wall_s")
    if (not isinstance(wall, (int, float)) or isinstance(wall, bool)
            or not math.isfinite(wall) or wall < 0):
        failures.append(f"{where}: `wall_s` must be a non-negative number")
    for key in ("points", "threads"):
        val = rec.get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val <= 0:
            failures.append(f"{where}: `{key}` must be a positive integer")
    # Optional keys are validated only when present.
    hit_rate = rec.get("cache_hit_rate")
    if hit_rate is not None and (
            not isinstance(hit_rate, (int, float)) or isinstance(hit_rate, bool)
            or not math.isfinite(hit_rate) or not 0.0 <= hit_rate <= 1.0):
        failures.append(f"{where}: `cache_hit_rate` must be in [0, 1]")
    for key in ("blocks_saved", "transfer_s", "migrations"):
        val = rec.get(key)
        if val is not None and (
                not isinstance(val, (int, float)) or isinstance(val, bool)
                or not math.isfinite(val) or val < 0):
            failures.append(f"{where}: `{key}` must be a non-negative "
                            "number")
    return bench


def check_pointers(root: str, paths: list, failures: list) -> None:
    """Fails unless the docs' `latest:` pointer and the CMake file name
    both name the newest BENCH_<n>.json."""
    numbered = [(int(m.group(1)), m.group(0)) for m in (
        re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(p))
        for p in paths) if m]
    if not numbered:
        return
    newest = max(numbered)[1]
    for rel, pattern in (
            ("docs/performance.md", r"latest:\s*`(BENCH_[^`]*\.json)`"),
            ("bench/CMakeLists.txt",
             r"set\(MARLIN_BENCH_JSON_NAME\s+(BENCH_\S*\.json)\)")):
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            m = re.search(pattern, fh.read())
        if m is None:
            failures.append(f"{rel}: no pointer to the newest bench file "
                            f"({newest}) found")
        elif m.group(1) != newest:
            failures.append(f"{rel}: names {m.group(1)}, but the newest "
                            f"file is {newest}")


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json found under {root} — run "
              "`cmake --build <dir> --target bench-json` and commit the "
              "result")
        return 1

    failures = []
    records = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{os.path.basename(path)}: {err}")
            continue
        if not isinstance(data, list) or not data:
            failures.append(
                f"{os.path.basename(path)}: expected a non-empty JSON array")
            continue
        seen = set()
        for i, rec in enumerate(data):
            bench = check_record(path, i, rec, failures)
            if bench in seen:
                failures.append(
                    f"{os.path.basename(path)}[{i}]: duplicate bench "
                    f"`{bench}`")
            seen.add(bench)
        records += len(data)
    check_pointers(root, paths, failures)

    if failures:
        print(f"{len(failures)} bench-json problem(s):")
        for f in failures:
            print(" ", f)
        return 1
    print(f"checked {len(paths)} bench-json file(s), {records} records: "
          "all well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
