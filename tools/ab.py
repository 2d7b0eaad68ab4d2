#!/usr/bin/env python3
"""Paired A/B of one perfbench workload: a parent commit against HEAD.

    python3 tools/ab.py <parent-sha> --workload converge --seeds 5

Exports both commits with `git archive` into two directories under
--work-dir (a fresh temporary directory by default), warms each tree's
perfbench build with one smoke run, then runs `perfbench/run.py` on
seeds 1..N in alternating order (the parent first on odd seeds, HEAD
first on even ones) and once more on a held-out seed, each run as long
as BENCHMARK.json's run_seconds.  For every
end-to-end metric of BENCHMARK.json it prints the medians over the N
paired seeds, the parent's interquartile range, the wins of HEAD (pairs
where HEAD is better), the held-out pair, and whether HEAD's median is
worse than the parent's by more than the metric's bound.  Exits 1 when
a run fails or is not `correct`, 2 when a bound check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree, workload, seed, seconds, scale="full"):
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--scale", scale],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"ab: run.py failed in {tree} (seed {seed}, "
                         f"exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="commit to compare HEAD against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=5,
                        help="paired seeds 1..N (default 5)")
    parser.add_argument("--heldout-seed", type=int, default=1000)
    parser.add_argument("--work-dir", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = args.work_dir or Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {}
    for name, rev in (("parent", args.parent), ("head", "HEAD")):
        sha = git("rev-parse", rev)
        trees[name] = work / f"{name}-{sha[:10]}"
        export(sha, trees[name])
        print(f"{name}: {sha} -> {trees[name]}", flush=True)
        run(trees[name], args.workload, args.heldout_seed, 1, scale="smoke")

    metrics = spec["end_to_end"]
    results = {"parent": [], "head": []}
    failures = 0
    seeds = list(range(1, args.seeds + 1)) + [args.heldout_seed]
    for i, seed in enumerate(seeds):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        for name in order:
            result = run(trees[name], args.workload, seed,
                         spec["run_seconds"])
            results[name].append(result)
            ok = result["correct"] and result["failed"] == 0
            failures += 0 if ok else 1
            summary = " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"seed {seed} {name:6s} correct={result['correct']} "
                  f"failed={result['failed']} {summary}", flush=True)

    paired = args.seeds
    print(f"\n{args.workload}: medians over {paired} paired seeds "
          f"(held-out seed {args.heldout_seed} listed apart)")
    print(f"{'metric':16s} {'parent':>10s} {'head':>10s} {'delta':>8s} "
          f"{'IQR/med':>8s} {'wins':>6s} {'held-out':>9s} bound")
    bound_failed = False
    for metric in metrics:
        name = metric["name"]
        if name not in results["parent"][0]["metrics"]:
            continue
        lower = metric["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in results["parent"]]
        b = [r["metrics"][name]["value"] for r in results["head"]]
        med_a = statistics.median(a[:paired])
        med_b = statistics.median(b[:paired])
        q1, q3 = quartiles(a[:paired])
        wins = sum((y < x) if lower else (y > x)
                   for x, y in zip(a[:paired], b[:paired]))
        delta = (med_b - med_a) / med_a if med_a else 0.0
        worse = delta if lower else -delta
        ok = worse <= metric["bound"]
        bound_failed = bound_failed or not ok
        held = (b[-1] - a[-1]) / a[-1] if a[-1] else 0.0
        iqr = (q3 - q1) / med_a if med_a else 0.0
        print(f"{name:16s} {med_a:10.4g} {med_b:10.4g} {delta:+8.1%} "
              f"{iqr:8.1%} {wins:3d}/{paired:<2d} {held:+9.1%} "
              f"{'ok' if ok else 'FAIL'} (<= {metric['bound']:.0%} worse)")
    if failures:
        print(f"ab: {failures} run(s) not correct or with failed operations")
        return 1
    return 2 if bound_failed else 0


if __name__ == "__main__":
    sys.exit(main())
