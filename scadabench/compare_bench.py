#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 scadabench/compare_bench.py A.json B.json

A and B are files written by collect.py (A = parent, B = change). For every
(end-to-end metric, workload) pair the verdict is:

  worse       B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json;
  unresolved  the run-to-run spread (quartile distance over the median) of
              either side exceeds the bound, and not every run of B beats
              every run of A;
  better      B wins at least 9 of 10 run pairs (ties count for neither) and
              the medians differ by more than A's quartile distance, or the
              spread is too wide but every run of B beats every run of A;
  same        otherwise.

fail_ratio is compared with an absolute bound of +0.001 (it is 0 on a
healthy run, so a relative bound means nothing). The record's other
end-to-end numbers (latency percentiles, CPU per op, longest stall) vary
too much from run to run on a shared host to carry a bound; they are shown
as "ungated": better or worse only when every run of B beats, or loses to,
every run of A, and unresolved otherwise. Exit status is 1 when any gated
pair is worse.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FAIL_RATIO_BOUND = 0.001
UNGATED = (("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"), ("latency_p999_ms", "ms"),
           ("cpu_us_per_op", "us"), ("max_stall_ms", "ms"))


def value(record, name):
    if name == "setup_s":  # kept in ms: the report writer rounds to 3 decimals
        return record["setup_ms"] / 1e3
    if name == "fail_ratio":
        return (record["failed"] + record["timeouts"]) / max(1, record["scheduled"])
    return record.get(name)


def samples(path):
    """workload -> records of its untraced runs, in run order."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for r in doc["records"]:
        name = r["name"]
        if name.endswith("/traced"):
            continue
        out.setdefault(name.removesuffix("/reference"), []).append(r)
    return out


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0, 0.0
    q = statistics.quantiles(vals, n=4)
    return q[2] - q[0], (q[2] - q[0]) / abs(med)


def verdict(a, b, bound, better, absolute=False):
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    iqr_a, rel_a = spread(a)
    _, rel_b = spread(b)
    if absolute:
        worse_by = sign * (mb - ma)
    else:
        worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    b_beats_all = all(sign * (y - x) < 0 for y in b for x in a)
    if not absolute and max(rel_a, rel_b) > bound:
        return "better" if b_beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > iqr_a:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(bench) as f:
        spec = json.load(f)
    a, b = samples(sys.argv[1]), samples(sys.argv[2])

    rows = [(m["name"], m["unit"], m["better"], m["bound"], False)
            for m in spec["end_to_end"]]
    rows.append(("fail_ratio", "ratio", "lower", FAIL_RATIO_BOUND, True))
    gated = {m["name"] for m in spec["end_to_end"]} | {"fail_ratio"}
    rows += [(n, u, "lower", None, False) for n, u in UNGATED if n not in gated]

    print(f"{'workload':20} {'metric':16} {'unit':6} {'A median':>11} {'A iqr%':>7} "
          f"{'B median':>11} {'B iqr%':>7} {'delta%':>8} {'bound':>7}  verdict")
    any_worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a or w not in b:
            print(f"{w:20} (missing from {'A' if w not in a else 'B'})")
            continue
        for name, unit, better, bound, absolute in rows:
            va = [value(r, name) for r in a[w]]
            vb = [value(r, name) for r in b[w]]
            if None in va or None in vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / abs(ma) * 100 if ma else 0.0
            if bound is None:
                bound_s = "-"
                sign = 1 if better == "lower" else -1
                if all(sign * (y - x) < 0 for y in vb for x in va):
                    v = "better (ungated)"
                elif all(sign * (y - x) > 0 for y in vb for x in va):
                    v = "worse (ungated)"
                else:
                    v = "unresolved (ungated)"
            else:
                v = verdict(va, vb, bound, better, absolute)
                bound_s = f"+{bound:g}" if absolute else f"{bound * 100:.0f}%"
                any_worse |= v == "worse"
            print(f"{w:20} {name:16} {unit:6} {ma:11.5g} {spread(va)[1] * 100:6.1f}% "
                  f"{mb:11.5g} {spread(vb)[1] * 100:6.1f}% {delta:7.1f}% {bound_s:>7}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
