#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py [--runs 10] [--workloads study,plant,serve]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py `--runs` times per workload in each of two sets, A and
B, interleaving them run by run (A B, then B A, ...) so that drift in the
host hits both sets alike. Every run uses its own seed; the held-out seed
(9001) is never used. For each end-to-end metric of each workload it prints
each set's median and quartiles, the spread (interquartile range over the
median), and the difference between the set medians in the metric's "worse"
direction, both against the metric's bound from BENCHMARK.json; the "all"
rows pool both sets.

A metric, setup_s included, fails when a spread exceeds its bound or when
set B's median is worse than set A's by more than the bound. The target is a
spread under a third of the bound.
Exit code 0 when nothing fails, 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 9001


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout + run.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {run.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    seeds = [s for s in range(1, 4 * args.runs + 2) if s != HELD_OUT_SEED]
    samples = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for which in order:
                seed = seeds[2 * i + (which == "B")]
                values = run_once(workload, seed, args.seconds, args.trace)
                samples[workload][which].append(values)
                print(f"run {i + 1}/{args.runs} {workload} set {which} seed "
                      f"{seed}: " + ", ".join(
                          f"{k}={v:.6g}" for k, v in values.items()
                          if args.trace == 0), flush=True)

    failed = False
    print(f"\n{'workload':8} {'metric':14} {'set':3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            bound = metric.get("bound")
            medians = {}
            for which in ("A", "B", "all"):
                runs = (samples[workload]["A"] + samples[workload]["B"]
                        if which == "all" else samples[workload][which])
                values = [run[name] for run in runs]
                q1, q2, q3, spread = describe(values)
                medians[which] = q2
                verdict = ""
                if bound is not None:
                    if spread > bound:
                        verdict, failed = "SPREAD > BOUND", True
                    elif spread > bound / 3:
                        verdict = "spread > bound/3"
                    else:
                        verdict = "ok"
                print(f"{workload:8} {name:14} {which:3} {q1:11.5g} {q2:11.5g} "
                      f"{q3:11.5g} {spread:7.3f} "
                      f"{bound if bound is not None else '-':>6}  {verdict}")
            if bound is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians["B"] - medians["A"]) / medians["A"]
            verdict = "ok"
            if worse > bound:
                verdict, failed = "MEDIAN MOVED > BOUND", True
            print(f"{workload:8} {name:14} B-A {'':11} {worse:+11.4f} {'':11} "
                  f"{'':7} {bound:>6}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
