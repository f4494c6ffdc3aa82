#!/usr/bin/env python3
"""Report the spread of recorded runs, or compare two sets of them.

    python3 perfbench/compare.py runs.jsonl              # one side
    python3 perfbench/compare.py parent.jsonl change.jsonl

The files are written by `run.py --record`.  For each (workload, metric) the
report gives every side's run count, median and quartiles, and the spread:
the distance between the quartiles as a share of the median.  A metric is
"unresolved" when a side's spread exceeds the metric's bound in
BENCHMARK.json, unless every run of the second side reads better than every
run of the first.  With two sides, "worse" marks a median that moved the wrong
way by more than the bound.  This is a report, not a gate: it always exits 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    """{(workload, metric): [value per run]} from a --record file."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs


def summary(values):
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else float("inf") if q3 != q1 else 0.0
    return median, q1, q3, spread


def verdict(metric, a, b):
    bound = metric.get("bound")
    higher = metric["better"] == "higher"
    if b is None:
        if bound is None:
            return ""
        spread = summary(a)[3]
        if spread > bound:
            return "unresolved"
        return "steady" if spread < bound / 3 else "within bound"
    if bound is None:
        return ""
    sign = 1.0 if higher else -1.0
    if min(sign * v for v in b) > max(sign * v for v in a):
        return "better in every run"
    if summary(a)[3] > bound or summary(b)[3] > bound:
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_a - med_b) / abs(med_a) if med_a else 0.0
    return "worse" if worse > bound else "no worse than bound"


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [load_runs(path) for path in argv]
    order = {name: i for i, name in enumerate(metrics)}
    keys = sorted(set().union(*sides), key=lambda k: (k[0], order.get(k[1], len(order))))
    for workload, name in keys:
        metric = metrics.get(name, {"better": "lower"})
        a = sides[0].get((workload, name))
        b = sides[1].get((workload, name)) if len(sides) == 2 else None
        cells = []
        for values in (a, b) if len(sides) == 2 else (a,):
            if values:
                med, q1, q3, spread = summary(values)
                cells.append(
                    f"n={len(values):2d} median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
                )
            else:
                cells.append("no runs")
        bound = metric.get("bound")
        note = verdict(metric, a, b) if a and (b or len(sides) == 1) else ""
        if a and b and statistics.median(a):
            base = statistics.median(a)
            note = f"change {100 * (statistics.median(b) / base - 1):+.1f}% of {base:.6g}; {note}"
        bound_text = f"bound {bound}" if bound is not None else "no bound"
        print(f"{workload:14s} {name:42s} " + " | ".join(cells) + f" | {bound_text} {note}")


if __name__ == "__main__":
    main(sys.argv[1:])
