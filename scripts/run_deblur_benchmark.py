#!/usr/bin/env python3
"""Deblurring through the sparsq CLI: the noise table (one CSV per level) and
an eta sweep at n=16, and the comparison of deblur_n125.ini.  Each entry of
RUNS is one command's arguments; results go to results/deblur/."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sparsq import cli  # noqa: E402

OUT = os.path.join(ROOT, "results", "deblur")

# snr_db: alpha, each noise level's regularization weight at eta = 1
NOISE_TABLE = {"inf": "1e-5", "50": "4e-5", "40": "1.4e-4", "30": "4.5e-4", "20": "1.6e-3"}

RUNS = [
    *(["deblur", "--algo", "hv", "--alpha", alpha, "--eta", "1", "--snr-db", snr,
       "--seeds", "0,1,2", "--out", f"{OUT}/noise_table_n16_snr{snr}.csv"]
      for snr, alpha in NOISE_TABLE.items()),
    ["sweep", "--experiment", "deblur", "--axis", "eta", "--values", "0,0.2,0.4,0.6,0.8,1",
     "--algo", "hv", "--alpha", "1.4e-4", "--snr-db", "40", "--seeds", "0,1,2",
     "--out", f"{OUT}/eta_sweep_n16.csv"],
    ["deblur", "--config", f"{ROOT}/scripts/deblur_n125.ini",
     "--out", f"{OUT}/comparison_n125.csv"],
]


def main():
    return max(cli.main(argv) for argv in RUNS)


if __name__ == "__main__":
    sys.exit(main())
