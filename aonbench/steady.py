#!/usr/bin/env python3
"""Check that a workload's end-to-end metrics hold steady on this host.

Usage (from the repository root):

    python3 aonbench/steady.py --workload soap_mix [--runs 10] [--seconds 10]
        [--sets 2] [--traced 0] [--seed-base 1000]

Runs the workload as interleaved sets of runs of the same build (set A,
set B, set A, ... each run with its own seed), then prints, per
end-to-end metric and set, the median and quartiles, the quartile spread
as a share of the median, and whether the sets agree within the bound
BENCHMARK.json fixes: each spread must stay within the bound, and the two
sets' medians may differ by at most the bound, in either direction. No
operation may fail in any run. With --traced N it also makes N traced
runs and prints the tracing overhead (traced against untraced throughput
and p50).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: run failed (exit {done.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady.py: incorrect output on seed {seed}")
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--traced", type=int, default=0, help="traced runs for the overhead")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    sets = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        # Alternate which set runs first, so a slow phase of the host
        # does not land on one set only.
        order = list(range(args.sets)) if i % 2 == 0 else list(reversed(range(args.sets)))
        for s in order:
            seed = args.seed_base + i * args.sets + s
            r = run_once(args.workload, seed, seconds, 0)
            sets[s].append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"set {'AB'[s]} seed {seed}: attempted {r['attempted']} failed {r['failed']} {vals}",
                  flush=True)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds}s each")
    print(f"{'metric':18s} {'set':3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for name, m in spec.items():
        meds = []
        for s, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                print(f"{name:18s} {'AB'[s]:3s} missing")
                ok = False
                continue
            q1, med, q3 = describe(values)
            spread = (q3 - q1) / med
            meds.append(med)
            steady = spread <= m["bound"]
            tight = spread <= m["bound"] / 3
            ok &= steady
            verdict = "ok" if steady else "TOO WIDE"
            if steady and not tight:
                verdict = "ok (above a third of the bound)"
            print(f"{name:18s} {'AB'[s]:3s} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{m['bound']:6.2f}  {verdict}")
        if len(meds) == 2:
            # Both sets run the same build: a difference either way is
            # the host's drift.
            diff = (meds[1] - meds[0]) / meds[0]
            agree = abs(diff) <= m["bound"]
            ok &= agree
            print(f"{'':18s} B vs A: {diff:+.3f} -> {'agree' if agree else 'DISAGREE'}")

    failed = sum(r["failed"] for runs in sets for r in runs)
    ok &= failed == 0
    print(f"failed ops over all runs: {failed} ({'none' if failed == 0 else 'SOME FAILED'})")

    if args.traced:
        traced = [run_once(args.workload, args.seed_base + 500 + i, seconds, 1)
                  for i in range(args.traced)]
        untraced = [r for runs in sets for r in runs]
        for e2e, tr in (("throughput_ops_s", "traced.throughput_ops_s"),
                        ("latency_p50_us", "traced.latency_p50_us")):
            base = statistics.median(r["metrics"][e2e]["value"] for r in untraced)
            with_trace = statistics.median(r["metrics"][tr]["value"] for r in traced)
            print(f"tracing overhead, {e2e}: untraced {base:.5g}, traced {with_trace:.5g} "
                  f"({(with_trace - base) / base:+.1%})")

    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
