#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload cs_hv --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py ... --record runs.jsonl   # also append the full record
    python3 perfbench/compare.py runs.jsonl [other.jsonl]

Run from the repository root; sparsq is imported from ./src.  A run repeats
passes (fresh instances, every call of the workload) until the next pass would
end after --seconds.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it runs every instance untraced and then
traced, and reports the per-layer metrics of the traced runs.  BLAS is pinned
to one thread, so results do not depend on how many cores the machine has.
"""

import os
import sys

from envinfo import BLAS_THREAD_VARS

BLAS_THREADS = 1  # at most nproc on any machine
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_SETUPS = 5  # setup_s is the median of at least this many instance builds


def import_sparsq():
    """Import sparsq from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import sparsq
    except ImportError as err:
        sys.exit(f"cannot import sparsq from {SRC}: {err}")
    if os.path.dirname(os.path.abspath(sparsq.__file__)) != os.path.join(SRC, "sparsq"):
        sys.exit(f"sparsq was imported from {sparsq.__file__}, not from {SRC}")
    return os.path.dirname(sparsq.__file__)


class Pass(NamedTuple):
    setups: list  # seconds of each make_instance
    outcomes: list  # one Outcome per top-level call
    seconds: float  # summed time of the top-level calls


def run_pass(workload, inst_seeds):
    """Build a fresh instance per instance seed and run every call on it."""
    import sparsq.bench
    from workloads import Outcome, label

    setups, outcomes = [], []
    for inst_seed in inst_seeds:
        start = time.perf_counter()
        try:
            inst, _ = sparsq.bench.make_instance(workload.cfg, inst_seed)
        except Exception as err:  # every call on a missing instance fails
            error = f"make_instance raised {err!r}"
            outcomes += [
                Outcome(label(s), 0.0, inst_seed, error=error) for s in workload.cfg.algorithms
            ]
            continue
        setups.append(time.perf_counter() - start)
        outcomes += [workload.run_call(s, inst, inst_seed) for s in workload.cfg.algorithms]
    return Pass(setups, outcomes, sum(o.seconds for o in outcomes))


def run_traced_round(workload, seed):
    """An untraced and a traced pass over the same instances.

    They alternate instance by instance, so that a drift in machine speed
    reaches both alike.  Returns (untraced Pass, traced Pass, Tracer).
    """
    from spans import Tracer, traced

    tracer = Tracer()
    untraced, traced_ = [], []
    for inst_seed in workload.instance_seeds(seed):
        untraced.append(run_pass(workload, [inst_seed]))
        with traced(tracer):
            traced_.append(run_pass(workload, [inst_seed]))
    return _merge(untraced), _merge(traced_), tracer


def _merge(passes):
    return Pass(
        [s for p in passes for s in p.setups],
        [o for p in passes for o in p.outcomes],
        sum(p.seconds for p in passes),
    )


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def _median_or_zero(values):
    values = _finite(values)
    return statistics.median(values) if values else 0.0


def _by_label(outcomes, field, average):
    """{call label: `average` of a finite per-call field over the run's instances}."""
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(getattr(o, field))
    return {k: average(_finite(v)) if _finite(v) else 0.0 for k, v in by_label.items()}


def end_to_end(passes, setups):
    calls = [o for p in passes for o in p.outcomes]
    first = passes[0].outcomes  # quality is deterministic: one pass holds all of it
    radius_calls = [o for o in first if o.radius_search] or first
    failed = sum(bool(o.error) for o in calls)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p.seconds for p in passes),
        "solve_s_p50": statistics.median(o.seconds for o in calls),
        "snr_out_db_p50": _median_or_zero(o.snr_db for o in first),
        # A mean, not a median: ht's SNRs split into a low and a high cluster,
        # and the median of 16 jumps between them from seed to seed.
        "snr_out_db_min": min(_by_label(first, "snr_db", statistics.fmean).values()),
        "radius_rel_err_max": max(
            _by_label(radius_calls, "radius_rel_err", statistics.median).values()
        ),
        "ok_frac": 1.0 - failed / len(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(calls), failed


def per_layer(untraced, traced):
    from spans import per_layer_metrics

    layers = [per_layer_metrics(tracer) for _, tracer in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    calls = [o for p, _ in traced for o in p.outcomes]
    failed = sum(bool(o.error) for o in calls)
    metrics["failed_frac"] = failed / len(calls)
    untraced_s = statistics.median(p.seconds for p in untraced)
    traced_s = statistics.median(p.seconds for p, _ in traced)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, len(calls), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record (env, samples) as a JSON line")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    package_dir = import_sparsq()
    import sparsq.bench
    from envinfo import environment
    from workloads import RADIUS_TOL, WORKLOADS, check_radius_median

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    env = environment(ROOT, package_dir, BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    run_start, cpu_start = time.perf_counter(), time.process_time()
    deadline = run_start + args.seconds
    untraced, traced, rounds = [], [], []
    while True:
        start = time.perf_counter()
        if args.trace:
            plain, traced_pass, tracer = run_traced_round(workload, args.seed)
            untraced.append(plain)
            traced.append((traced_pass, tracer))
        else:
            untraced.append(run_pass(workload, workload.instance_seeds(args.seed)))
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break
    for p in untraced + [p for p, _ in traced]:  # each holds every instance once
        check_radius_median(p.outcomes)
    setups = [s for p in untraced for s in p.setups]
    inst_seeds = workload.instance_seeds(args.seed)
    while not args.trace and len(setups) < MIN_SETUPS:
        start = time.perf_counter()
        sparsq.bench.make_instance(workload.cfg, inst_seeds[len(setups) % len(inst_seeds)])
        setups.append(time.perf_counter() - start)

    if args.trace:
        metrics, attempted, failed = per_layer(untraced, traced)
        passes = [p for p, _ in traced]
    else:
        metrics, attempted, failed = end_to_end(untraced, setups)
        passes = untraced
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in listed):
        sys.exit(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json's")
    for o in (o for p in passes for o in p.outcomes):
        if o.error:
            print(f"FAILED {o.label} seed {o.seed}: {o.error}", file=sys.stderr)
    for o in passes[0].outcomes:
        if o.radius_search and not o.error and o.radius_rel_err > RADIUS_TOL:
            print(
                f"NOTE {o.label} seed {o.seed}: radius off by {100 * o.radius_rel_err:.2f}%;"
                " criterion 8's bound applies to the run's median search",
                file=sys.stderr,
            )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    detail = {
        "wall_s": time.perf_counter() - run_start,
        "process_cpu_s": time.process_time() - cpu_start,  # far below wall_s: descheduled
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "setup_s": setups,
        "calls": [
            {
                "label": o.label,
                "seed": o.seed,
                "seconds": o.seconds,
                "snr_db": o.snr_db if math.isfinite(o.snr_db) else None,
                "radius_rel_err": o.radius_rel_err if math.isfinite(o.radius_rel_err) else None,
                "error": o.error,
            }
            for o in passes[0].outcomes
        ],
    }
    print("detail " + json.dumps(detail), flush=True)
    if args.record:
        record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
        record.update(trace=args.trace, env=env, detail=detail, result=result)
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
