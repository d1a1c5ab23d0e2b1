#!/usr/bin/env python3
"""Convergence behavior of the inner Newton solver on the worked 2x2 channel.

Runs the damped Newton iteration at several fixed barrier parameters from the
standard starting point and prints the residual history of each run, then the
full barrier schedule: how each stage started and the secrecy-rate trace. The residual columns show
the two convergence phases (roughly linear, then quadratic once the basin is
reached). Use --csv to dump the schedule trace for external plotting, in the
CSV format of ``secrecap trace-export``.
"""

import argparse

import numpy as np

from secrecap import BarrierObjective, ChannelPair, SolverConfig, initial_point, solve_minimax
from secrecap.cli import write_trace_csv
from secrecap.kkt_newton import newton_solve

H1 = np.array([[0.77, -0.30], [-0.32, -0.64]])
H2 = np.array([[0.54, -0.11], [-0.93, -1.71]])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--power", type=float, default=10.0)
    ap.add_argument("--t-values", type=float, nargs="+",
                    default=[1e2, 1e3, 1e4, 1e5])
    ap.add_argument("--csv", default=None,
                    help="write the barrier-schedule trace to this CSV file")
    args = ap.parse_args()

    ch = ChannelPair(H1, H2)
    print(f"difference eigenvalues: {np.linalg.eigvalsh(ch.W1 - ch.W2)}")

    histories = {}
    for t in args.t_values:
        obj = BarrierObjective(ch, t, args.power)
        _, (rep,), (err,) = newton_solve(obj, initial_point(ch, args.power), eps=1e-10)
        if err is not None:
            raise err
        histories[t] = rep.residual_norms
        print(f"t = {t:g}: {rep.iterations} steps, "
              f"final residual {rep.final_residual_norm:.2e}")

    width = max(len(h) for h in histories.values())
    print("\nresidual norm per Newton step (fixed t, cold start):")
    print("step  " + "  ".join(f"t={t:<9g}" for t in args.t_values))
    for k in range(width):
        row = [f"{h[k]:11.3e}" if k < len(h) else " " * 11
               for h in histories.values()]
        print(f"{k:4d}  " + "  ".join(row))

    print("\nbarrier schedule, each stage from the previous central point's "
          "tangent prediction:")
    sol = solve_minimax(ch, args.power, SolverConfig())
    for k, (t, rep) in enumerate(sol.stage_reports):
        if rep.rerun:
            start = "previous central point, after the predicted start failed"
        elif rep.predictor_step is not None:
            start = "predicted start"
        else:
            start = "previous central point" if k else "standard start"
        print(f"t = {t:g}: {rep.iterations} steps from the {start}")
    print("\nrates per accepted step:")
    print(f"{'t':>9}  {'step':>4}  {'residual':>10}  {'f (nats)':>10}  {'C (nats)':>10}")
    for r in sol.trace:
        print(f"{r.t:9g}  {r.iteration:4d}  {r.residual:10.3e}  "
              f"{r.f:10.6f}  {r.C:10.6f}")
    print(f"\ncapacity (achievable) = {sol.capacity_achievable:.8f} nats, "
          f"upper bound = {sol.capacity_upper:.8f} nats, "
          f"gap bound = {sol.gap_bound:.1e}")

    if args.csv:
        write_trace_csv([r.as_dict() for r in sol.trace], args.csv)
        print(f"trace written to {args.csv}")


if __name__ == "__main__":
    main()
