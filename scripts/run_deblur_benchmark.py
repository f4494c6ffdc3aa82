#!/usr/bin/env python3
"""Deblurring benchmark: noise-level table at n=16 and the large n=125 run."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sparsq.bench import (  # noqa: E402
    AlgorithmSpec,
    ExperimentConfig,
    report_csv_text,
    run_experiment,
    sweep,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "results", "deblur")

# per-noise-level regularization weights for the eta=1 column
NOISE_TABLE = [(float("inf"), 1e-5), (50.0, 4e-5), (40.0, 1.4e-4), (30.0, 4.5e-4), (20.0, 1.6e-3)]


def write(name, text):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def main():
    all_rows = []
    for snr_db, alpha in NOISE_TABLE:
        cfg = ExperimentConfig(
            experiment="deblur",
            n=16,
            band=3,
            sigma=0.7,
            snr_db=snr_db,
            seeds=(0, 1, 2),
            maxiter=1500,
            algorithms=(AlgorithmSpec("hv", {"alpha": alpha, "eta": 1.0}),),
        )
        rows, _, _ = run_experiment(cfg)
        all_rows.extend(rows)
    write("noise_table_n16.csv", report_csv_text(all_rows))

    # eta sweep at a fixed weight, n=16, 40 dB
    cfg = ExperimentConfig(
        experiment="deblur",
        n=16,
        band=3,
        sigma=0.7,
        snr_db=40.0,
        seeds=(0, 1, 2),
        maxiter=1500,
        algorithms=(AlgorithmSpec("hv", {"alpha": 1.4e-4, "eta": 0.0}),),
    )
    rows, _ = sweep(cfg, "eta", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    write("eta_sweep_n16.csv", report_csv_text(rows))

    # large image, solver comparison
    big = ExperimentConfig(
        experiment="deblur",
        n=125,
        band=3,
        sigma=0.7,
        snr_db=60.0,
        seeds=(0,),
        maxiter=1500,
        algorithms=(
            AlgorithmSpec("hv", {"alpha": 1e-5, "eta": 1.0}),
            AlgorithmSpec("ht", {"lam": 1e-5}),
            AlgorithmSpec("pg", {"beta": 1e-5, "gamma": 1.0, "radius_sq": "auto"}),
        ),
        mdp={"r_min": 1.0, "r_max": 5e7},
    )
    rows, _, _ = run_experiment(big)
    write("comparison_n125.csv", report_csv_text(rows))


if __name__ == "__main__":
    main()
