#!/usr/bin/env python3
"""Compressive sensing benchmark at the desk settings.

Runs the eta sweep (fixed alpha) and the solver comparison on the standard
instance, writing results CSVs into results/cs/.  Mirrors the CLI, so the
same runs are available via `sparsq sweep ...` and `sparsq cs ...`.
Takes a few minutes; the discrepancy-principle weight selection for the
baselines dominates.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sparsq.bench import (  # noqa: E402
    AlgorithmSpec,
    ExperimentConfig,
    agg_csv_text,
    manifest_text,
    report_csv_text,
    run_experiment,
    sweep,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "results", "cs")

DESK = dict(
    experiment="cs",
    n=200,
    m=80,
    s=16,
    scale=0.04,
    snr_db=40.0,
    seeds=tuple(range(10)),
    maxiter=1500,
)


def write(name, text):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def main():
    # eta sweep for the prox-gradient solver at fixed alpha
    cfg = ExperimentConfig(
        algorithms=(AlgorithmSpec("hv", {"alpha": 6e-5, "eta": 0.0}),), **DESK
    )
    values = [round(0.1 * k, 1) for k in range(11)]
    rows, agg = sweep(cfg, "eta", values)
    write("eta_sweep.csv", report_csv_text(rows))
    write("eta_sweep.agg.csv", agg_csv_text(agg))

    # solver comparison; the l1-penalized baselines get their own
    # discrepancy-selected weights (the squared-l1 weight lives on a
    # different scale), the half-thresholding weight is hand-tuned
    cmp_cfg = ExperimentConfig(
        algorithms=(
            AlgorithmSpec("ista", {"alpha": "auto"}),
            AlgorithmSpec("fista", {"alpha": "auto"}),
            AlgorithmSpec("st", {"alpha": "auto", "eta": 1.0}),
            AlgorithmSpec("hv", {"alpha": 6e-5, "eta": 1.0}),
            AlgorithmSpec("ht", {"lam": 2e-2}),
            AlgorithmSpec("pg", {"beta": 6e-5, "gamma": 1.0, "radius_sq": "auto"}),
        ),
        mdp={"r_min": 1.0, "r_max": 1e5},
        **{**DESK, "seeds": tuple(range(5))},
    )
    rows, traces, _ = run_experiment(cmp_cfg, want_traces=True)
    write("solver_comparison.csv", report_csv_text(rows))
    write("solver_comparison.manifest.txt", manifest_text(cmp_cfg))
    from sparsq.bench import trace_csv_text

    for (algo, seed), trace in traces.items():
        if seed == 0:
            write(f"trace_{algo}_seed0.csv", trace_csv_text(trace))


if __name__ == "__main__":
    main()
