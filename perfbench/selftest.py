#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at smoke scale, untraced and
traced, through perfbench/run.py.  Each run must pass its output checks,
report no failed unit, and emit exactly the metric names BENCHMARK.json
declares (end_to_end untraced, per_layer traced).  Takes about a minute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: sorted(m["name"] for m in spec["end_to_end"]),
                1: sorted(m["name"] for m in spec["per_layer"])}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            problem = None
            if done.returncode != 0 or not lines:
                problem = f"exit code {done.returncode}"
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] != 0:
                    problem = "output check failed"
                elif sorted(result["metrics"]) != declared[trace]:
                    problem = "metric names differ from BENCHMARK.json"
            print(f"{workload:10s} trace={trace} {elapsed:6.1f}s "
                  f"{problem or 'ok'}")
            if problem:
                failures += 1
                print(done.stderr[-3000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
