#!/usr/bin/env python3
"""Runs the benchmark once per seed and summarises each metric.

Usage, from the repository root:

    python3 perfbench/repeat.py --workload tweets-q2 --seeds 1-10 [--seconds 25] [--trace 0] [--out FILE] [--keep DIR]

For every metric of the JSON result lines it prints the median, the first
and third quartiles (statistics.quantiles with n=4) and the spread, the
interquartile distance as a share of the median. --out writes the same
summary as JSON (the form perfbench/baseline.json keeps per workload);
--keep stores each run's full standard output as DIR/<workload>-<seed>.txt.
Runs are sequential; a run that fails or reports correct=false stops the
script with a non-zero exit code.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--keep")
    args = ap.parse_args()

    values, units = {}, {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        if args.keep:
            with open(f"{args.keep}/{args.workload}-{seed}.txt", "w") as f:
                f.write(proc.stdout)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {res['attempted']}, failed {res['failed']}", file=sys.stderr)

    summary = {}
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": v}
        print(f"{name:32s} {med:16.6g} {units[name]:9s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "trace": args.trace, "metrics": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
