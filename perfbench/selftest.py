#!/usr/bin/env python3
# Copyright 2026 The QPGC Authors.
"""Self-tests of the end-to-end benchmark.

Run from the repository root (takes about a minute per workload):

  python3 perfbench/selftest.py [--workload social-uniform] [--seed 7]

Checks, for each workload given:
  * two untraced runs with one seed print the same determinism digest:
    the answer hash, resident_bytes, the dirty cones and the
    single-threaded cache counters;
  * the traced run with that seed gives the same digest, and its replica's
    dirty cones and its cache counters equal the digest's;
  * every printed metric is declared in BENCHMARK.json with the same unit,
    and every declared metric of the run's kind is printed;
  * every run is correct, with no failed operation.
Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST_RE = re.compile(r"^perfbench: digest (.*)$", re.MULTILINE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "20", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = DIGEST_RE.search(proc.stderr)
    if digest is None:
        raise SystemExit(f"FAIL {workload} trace={trace}: no digest line")
    fields = dict(kv.split("=", 1) for kv in digest.group(1).split())
    return result, fields


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_declared(result, declared, kind, workload):
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared[kind]}
    wrong_unit = sorted(k for k in printed if k in want and
                        printed[k] != want[k])
    check(printed == want,
          f"{workload}: printed {kind} metrics match BENCHMARK.json "
          f"(extra {sorted(set(printed) - set(want))}, "
          f"missing {sorted(set(want) - set(printed))}, "
          f"unit mismatches {wrong_unit})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    for w in workloads:
        first, d1 = run(w, args.seed, 0)
        second, d2 = run(w, args.seed, 0)
        traced, dt = run(w, args.seed, 1)
        for name, res in (("untraced", first), ("untraced rerun", second),
                          ("traced", traced)):
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{w}: {name} run correct with no failed operation")
        check(d1 == d2, f"{w}: same seed gives the same digest {d1}")
        check(dt == d1, f"{w}: traced run gives the untraced digest")
        check(str(first["metrics"]["resident_bytes"]["value"]) ==
              d1["resident_bytes"], f"{w}: resident_bytes is the digest's")
        m = traced["metrics"]
        check(int(m["inc.rcm_dirty_cone"]["value"]) == int(d1["rcm_cone"]) and
              int(m["inc.pcm_dirty_cone"]["value"]) == int(d1["pcm_cone"]),
              f"{w}: replica dirty cones equal the served state's")
        check(int(m["serve.cache.exact_hits"]["value"]) ==
              int(d1["cache_exact"]) and
              int(m["serve.cache.misses"]["value"]) == int(d1["cache_misses"]),
              f"{w}: traced cache counters equal the digest's")
        check_declared(first, declared, "end_to_end", w)
        check_declared(traced, declared, "per_layer", w)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
