#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds 24]
    python3 perfbench/spread.py --workload serve --seeds 1-5 --overhead

For every metric of the untraced runs it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
With `--overhead` it also runs each seed traced and prints, for every
end-to-end metric, the traced median and its difference from the
untraced one: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect run\n{out.stdout}")
    e2e = {}
    for line in lines:
        # "e2e <name> = <value> <unit> (samples <n>)", printed in both modes.
        if line.startswith("e2e "):
            parts = line.split()
            e2e[parts[1]] = float(parts[3])
    return result["metrics"], e2e


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--overhead", action="store_true")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    plain, traced = {}, {}
    for seed in seeds(a.seeds):
        metrics, _ = run(a.workload, seed, seconds, 0)
        for name, m in metrics.items():
            plain.setdefault(name, []).append(m["value"])
        if a.overhead:
            _, e2e = run(a.workload, seed, seconds, 1)
            for name, v in e2e.items():
                traced.setdefault(name, []).append(v)
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{a.workload}: {len(plain['setup_s'])} runs of {seconds} s")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}"
          + (f"{'traced':>14}{'overhead':>10}" if a.overhead else ""))
    for name, values in plain.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        row = f"{name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bounds.get(name, 0):>7}"
        if a.overhead and name in traced:
            t = statistics.median(traced[name])
            row += f"{t:>14.6g}{(t - med) / med if med else 0:>+10.3f}"
        print(row + "  [" + " ".join(f"{v:.4g}" for v in values) + "]")


if __name__ == "__main__":
    main()
