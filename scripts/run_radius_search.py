#!/usr/bin/env python3
"""Radius selection through the sparsq CLI, with the pg weights and [mdp] of
cs_desk.ini (seed 0) and deblur_n125.ini.  Each entry of RUNS is one command's
arguments; the traces go to results/radius/, each manifest records
final_radius_sq next to x_true_l1_sq."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sparsq import cli  # noqa: E402

OUT = os.path.join(ROOT, "results", "radius")

RUNS = [
    ["radius-search", "--experiment", "cs", "--config", f"{ROOT}/scripts/cs_desk.ini",
     "--seeds", "0", "--out", f"{OUT}/cs_radius_trace.csv"],
    ["radius-search", "--experiment", "deblur", "--config", f"{ROOT}/scripts/deblur_n125.ini",
     "--out", f"{OUT}/deblur_radius_trace.csv"],
]


def main():
    return max(cli.main(argv) for argv in RUNS)


if __name__ == "__main__":
    sys.exit(main())
