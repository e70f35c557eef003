"""Check that the benchmark is steady: two interleaved sets of runs of
the same code must agree within the bounds of ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 5
    python3 perfbench/steady.py --runs 3 --workloads ops-churn --out spread.json

Each round runs every workload once per set, alternating which set goes
first, and every run gets its own seed.  For every workload and
end-to-end metric the report gives each set's median and quartiles, the
spread (quartile distance over the median, per set and pooled), and
whether the sets agree: every spread, ``setup_s``'s included, within the
metric's bound, the two medians apart by no more than the bound in
either direction, and the same share of failed operations in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = re.search(r"host clock: .* mean-ms=([\d.]+)", done.stderr)
    result["probe_ms"] = float(probe.group(1)) if probe else None
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values) -> tuple:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(spec: dict, results: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        print(f"\n== {workload}")
        print(f"{'metric':16s} {'set':4s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        shares = {tuple(sorted({r['failed'] / r['attempted'] for r in s})) for s in sets}
        if len(shares) != 1 or len(next(iter(shares))) != 1:
            print(f"failed share differs between runs: {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s] for s in sets]
            stats = [spread(v) for v in per_set]
            pooled = spread(per_set[0] + per_set[1])
            first, second = stats[0][0], stats[1][0]
            apart = (second - first) / first
            agree = abs(apart) <= bound and all(s[3] <= bound for s in stats + [pooled])
            ok &= agree
            for label, (median, q1, q3, rel) in zip(("A", "B", "all"), stats + [pooled]):
                verdict = ""
                if label == "all":
                    verdict = (f"{'ok' if agree else 'DISAGREE'} (B vs A {apart:+.3f}; "
                               f"third of bound {bound / 3:.3f})")
                print(f"{name:16s} {label:4s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{rel:7.3f} {bound:6.2f}  {verdict}")
        probes = [r["probe_ms"] for s in sets for r in s if r["probe_ms"]]
        walls = [r["wall_s"] for s in sets for r in s]
        print(f"host clock mean probe ms: {min(probes):.4f}..{max(probes):.4f}; "
              f"run wall s: {min(walls):.1f}..{max(walls):.1f}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", default=None, help="write every run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {w: ([], []) for w in workloads}
    seed = args.seed_base
    for round_ in range(args.runs):
        for workload in workloads:
            for which in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                result = run_once(workload, seed, seconds)
                seed += 1
                results[workload][which].append(result)
                print(f"{workload} set {'AB'[which]} seed {result['seed']}: "
                      f"{result['wall_s']:.1f} s, correct={result['correct']}",
                      file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
