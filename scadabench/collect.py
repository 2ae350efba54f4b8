#!/usr/bin/env python3
"""Runs a set of benchmark runs and merges their records into one file.

    python3 scadabench/collect.py --runs 5 --seed 100 --out A.json
    python3 scadabench/collect.py --runs 1 --trace 1 --out traced.json

Workloads are interleaved (run r of every workload before run r+1 of any),
run r uses seed --seed + r. The output keeps the src/load report schema:
{"bench", "records": [...]} with every record exactly as socket_bench wrote
it, plus a "machine" object (nproc, CPU model) and "runs" (the JSON line
each run printed). compare_bench.py reads two such files.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    records, runs = [], []
    for r in range(args.runs):
        for w in workloads:
            seed = args.seed + r
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if result is None or not result["correct"]:
                sys.exit(f"collect.py: {w} seed {seed} failed (exit {proc.returncode})")
            runs.append({"workload": w, "seed": seed, "trace": args.trace, **result})
            report = os.path.join(ROOT, ".bench_build", "runs", f"{w}-trace{args.trace}",
                                  "BENCH_scadabench.json")
            with open(report) as f:
                records.extend(json.load(f)["records"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)

    with open(args.out, "w") as f:
        json.dump({"bench": "scadabench", "machine": machine(), "seconds": seconds,
                   "records": records, "runs": runs}, f, indent=1)
        f.write("\n")

    # Spread of each reported metric: quartile distance over the median.
    print(f"{'workload':20} {'metric':36} {'median':>12} {'iqr/median':>10}")
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        for name in mine[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(vals)
            spread = "-"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):.4f}"
            print(f"{w:20} {name:36} {med:12.6g} {spread:>10}")


if __name__ == "__main__":
    main()
