#!/usr/bin/env python3
"""Smoke-size self-check of the benchmark.

Run from the repository root:

    python3 verdictbench/selfcheck.py

For every workload it runs one short untraced and one short traced run and
confirms that each metric BENCHMARK.json names is emitted with its unit and
that the run checks out correct. It then reruns each workload with one known
answer deliberately corrupted and confirms the benchmark reports the run as
incorrect. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SMOKE_SECONDS = "1"


def run(workload, trace, plant=False):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS,
           "--trace", str(trace)]
    if plant:
        cmd.append("--plant-wrong-answer")
    out = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s trace=%d: wrong result keys" % (name, trace))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s trace=%d: run not correct" % (name, trace))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append("%s: %s missing" % (name, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    failures.append("%s: %s unit %s, expected %s"
                                    % (name, metric["name"], got["unit"],
                                       metric["unit"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                failures.append("%s: unlisted metrics %s" % (name, sorted(extra)))
        planted = run(name, 0, plant=True)
        if planted["correct"] or planted["failed"] == 0:
            failures.append("%s: planted wrong answer was not caught" % name)
        print("selfcheck: %s done" % name, file=sys.stderr)
    for f in failures:
        print("FAIL: " + f)
    if failures:
        sys.exit(1)
    print("selfcheck: all workloads emit every metric and catch a planted "
          "wrong answer")


if __name__ == "__main__":
    main()
