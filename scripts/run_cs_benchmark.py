#!/usr/bin/env python3
"""Compressive sensing at the desk settings, through the sparsq CLI: the eta
sweep of hv at fixed alpha, and the six-solver comparison of cs_desk.ini with
its traces.  Each entry of RUNS is one command's arguments; results go to
results/cs/."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sparsq import cli  # noqa: E402

OUT = os.path.join(ROOT, "results", "cs")

RUNS = [
    ["sweep", "--experiment", "cs", "--axis", "eta", "--algo", "hv", "--alpha", "6e-5",
     "--values", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1", "--snr-db", "40",
     "--seeds", "0,1,2,3,4,5,6,7,8,9",
     "--out", f"{OUT}/eta_sweep.csv", "--agg-out", f"{OUT}/eta_sweep.agg.csv"],
    ["cs", "--config", f"{ROOT}/scripts/cs_desk.ini", "--out", f"{OUT}/solver_comparison.csv",
     "--trace-dir", OUT],
]


def main():
    return max(cli.main(argv) for argv in RUNS)


if __name__ == "__main__":
    sys.exit(main())
