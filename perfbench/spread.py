#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and judge its run-to-run spread.

Run from the root of a vat checkout:

  python3 perfbench/spread.py --seeds 1-10 [--workloads cold_suite,warm_sweep]
                              [--out runs.json]
  python3 perfbench/spread.py --compare first.json second.json

The first form runs every selected workload once per seed with tracing
off, then prints each end-to-end metric's median, quartiles and spread
(interquartile range over median) against its bound in BENCHMARK.json.
The second form checks that two saved sets of runs agree: each spread
within its bound (setup_s excepted) and the second median no worse than
the first by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    """Quartiles by Python's default (exclusive) method."""
    return statistics.quantiles(values, n=4)


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_share(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def agreement(first, second, metric):
    """Problems found comparing two sets of runs of one metric; empty
    when they agree within the metric's bound."""
    bound, name = metric["bound"], metric["name"]
    problems = []
    if name != "setup_s":
        for label, values in (("first", first), ("second", second)):
            if spread(values) > bound:
                problems.append(f"{name}: {label} spread {spread(values):.3f} > {bound}")
    if worse_share(first, second, metric["better"]) > bound:
        problems.append(
            f"{name}: second median worse by {worse_share(first, second, metric['better']):.3f} > {bound}")
    return problems


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def report(bench, runs):
    ok = True
    for workload, metrics in runs.items():
        print(f"{workload}: {len(metrics['correct'])} runs, all correct: {all(metrics['correct'])}")
        ok = ok and all(metrics["correct"])
        for m in bench["end_to_end"]:
            values = metrics[m["name"]]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            verdict = ("steady" if s < m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s" and s > m["bound"]:
                ok = False
            print(f"  {m['name']:20s} median {med:14.6g} {m['unit']:7s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {s:.4f} "
                  f"(bound {m['bound']}) {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        problems = [p for w in first for m in bench["end_to_end"]
                    for p in agreement(first[w][m["name"]], second[w][m["name"]], m)]
        print("\n".join(problems) or "the two sets of runs agree")
        return 1 if problems else 0
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    runs = {}
    for workload in names:
        metrics = runs.setdefault(workload, {"correct": []})
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            metrics["correct"].append(result["correct"] and result["failed"] == 0)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if report(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
