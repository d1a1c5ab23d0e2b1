#!/usr/bin/env python3
"""Distribution of total Newton steps over random channels.

Reproduces the step-count statistics protocol: seeded i.i.d. standard normal
channels, barrier schedule t0=100 -> t_max=1e5 with mu=10, Newton residual
target 1e-10 (or 1e-8 for the larger system), and prints a text histogram.
"""

import argparse

import numpy as np

from secrecap import SolverConfig
from secrecap.cli import run_batch


def print_histogram(summary):
    counts = summary["histogram"]
    total = sum(counts.values())
    print(f"\n{'steps':>8}  count")
    for bucket, count in counts.items():
        bar = "#" * count
        print(f"{bucket:>8}  {count:3d}  {bar}")
    stats = summary["stats"]
    print(f"\n{total} converged, {summary['failures']} failures; "
          f"median {stats['median']:.0f}, min {stats['min']}, max {stats['max']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--power", type=float, default=10.0)
    ap.add_argument("--large", action="store_true",
                    help="run the m=5, n1=n2=10 system at residual 1e-8 "
                         "instead of m=4, n1=n2=3 at 1e-10")
    args = ap.parse_args()

    if args.large:
        m, n1, n2, target = 5, 10, 10, 1e-8
    else:
        m, n1, n2, target = 4, 3, 3, 1e-10

    cfg = SolverConfig(t0=100.0, mu=10.0, t_max=1e5, eps_newton=target)
    print(f"m={m}, n1={n1}, n2={n2}, {args.count} channels, seed {args.seed}, "
          f"residual target {target:g}")
    summary = run_batch(m, n1, n2, args.count, args.seed, args.power, cfg)
    print_histogram(summary)

    steps = np.array([r["steps"] for r in summary["per_channel"] if r["converged"]])
    print(f"within 60 steps: {int(np.sum(steps <= 60))}/{steps.size}")


if __name__ == "__main__":
    main()
