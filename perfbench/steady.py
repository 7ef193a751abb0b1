#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarise each metric.

Run from the repository root:

    python3 perfbench/steady.py --runs 10            # end-to-end metrics
    python3 perfbench/steady.py --runs 5 --trace 1   # per-layer metrics

Run i of every workload uses seed --seed + i, and the workloads take
turns, so drift of the host during the report reaches each of them alike.
For each metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and the max/min ratio. For an end-to-end metric it
also prints the metric's bound from BENCHMARK.json and marks a spread
of a third of the bound or more with "!", except setup_s, whose bound
covers the shift of its median between two sets of runs, not its spread.
The raw results go to .bench_build/steady-<time>.json. Exits 1 if any
run fails or reports an incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    host = json.loads(lines[0]).get("host")
    return res, host


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else float("inf"),
        "maxmin": hi / lo if lo > 0 else float("inf"),
    }


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in args.workloads}
    raw = []
    host = None
    failed = False
    for i in range(args.runs):
        for w in args.workloads:
            seed = args.seed + i
            try:
                res, host = run_once(root, w, seed, args.seconds, args.trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                print(f"FAILED {e}", file=sys.stderr)
                failed = True
                continue
            raw.append({"workload": w, "seed": seed, "result": res})
            if not res["correct"] or res["failed"]:
                print(f"FAILED {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
                failed = True
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)

    print(f"host: {json.dumps(host)}")
    print(f"runs: {args.runs} per workload, {args.seconds} s each, trace {args.trace}")
    print()
    print("| workload | metric | median | q1 | q3 | spread | max/min | bound |")
    print("|---|---|---:|---:|---:|---:|---:|---:|")
    for w in args.workloads:
        for name in sorted(values[w]):
            vs = values[w][name]
            if len(vs) < 2:
                continue
            s = summarise(vs)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag = " !"
            print(f"| {w} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                  f"{s['spread']:.3f}{flag} | {s['maxmin']:.3f} | "
                  f"{'' if bound is None else bound} |")

    out = os.path.join(root, ".bench_build", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"host": host, "args": vars(args), "runs": raw}, f)
    print(f"\nraw results: {os.path.relpath(out, root)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
