#!/usr/bin/env python3
"""Runs one workload of the socket-mode SCADA benchmark.

    python3 scadabench/run.py --workload update-1k --seed 7 --seconds 15 --trace 0

Builds the benchmark package (scadabench/CMakeLists.txt: the repo's
libraries, the unmodified `deploy` binary and socket_bench) under
.bench_build/ on first use, runs socket_bench for the workload, and echoes
its `name workload value unit` lines. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Everything the run writes stays under .bench_build/ in the checkout.

Exit status: 0 when the run completed and every correctness check passed;
1 on a violation (the JSON line still reports correct: false) or when the
run could not complete (no JSON line); 2 on a usage error or when the
checkout lacks the sources the benchmark builds.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "scadabench")
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "socket_bench", "deploy"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    for need in (bench_json, os.path.join(ROOT, "src", "CMakeLists.txt"),
                 os.path.join(ROOT, "examples", "deploy.cpp")):
        if not os.path.exists(need):
            fail(f"{os.path.relpath(need, ROOT)} is missing: run from a full "
                 "checkout of the repo", 2)
    with open(bench_json) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(BUILD_ROOT, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(env)

    out = os.path.join(BUILD_ROOT, "runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [os.path.join(BUILD_DIR, "socket_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--deploy", os.path.join(BUILD_DIR, "deploy"), "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"socket_bench did not finish within {RUN_TIMEOUT_S} s")

    values, units, summary = {}, {}, None
    for line in proc.stdout.splitlines():
        print(line)
        tok = line.split()
        if len(tok) == 5 and tok[0] == "summary" and tok[1] == args.workload:
            summary = tok
        elif len(tok) == 4 and tok[1] == args.workload:
            try:
                values[tok[0]] = float(tok[2])
            except ValueError:
                continue
            units[tok[0]] = tok[3]
    if summary is None:
        fail(f"socket_bench exited with {proc.returncode} and no summary")

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in values:
            fail(f"socket_bench reported no {name}")
        if units[name] != m["unit"]:
            fail(f"{name}: unit {units[name]} != {m['unit']} in BENCHMARK.json")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    correct = summary[2] == "1" and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(summary[3]),
                      "failed": int(summary[4]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
