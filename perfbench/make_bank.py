#!/usr/bin/env python3
"""Write ``bank.json``: for every input candidate of the ``small``, ``large``
and ``dual`` workloads, what the program computes for it now.

    python3 perfbench/make_bank.py

A candidate whose solves all return and pass the output checks is stored
under ``solved`` with its reference: f and the gap bound of each solve, or
for a dual channel its capacity at the reference power, which sets its
targets. Any other candidate is stored under ``failed`` with the error it
raised (``invalid`` when a check failed); runs time only solved candidates
and probe a few failed ones. ``batch_c11`` stores f and the gap bound of the
seed-0 batch channels solved one by one (null where the solve raised).

The committed file was produced at the commit that introduced the benchmark;
regenerate it only when the candidates change, never to make a check pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _solve(op):
    """(output, None) or (None, error kind) for one operation."""
    import workloads
    from secrecap import errors

    try:
        out = workloads.execute(op, 0)
    except (errors.SingularKktError, errors.SolverError, errors.BracketError) as exc:
        return None, type(exc).__name__
    return out, ("invalid" if _check(op, out) else None)


def _check(op, out):
    import checks

    if op.kind == "dual":
        p_star, sol = out
        return checks.check_dual(p_star, sol, op.ch, op.target)
    if op.kind == "minimax_pair":
        return [p for sol, ch in zip(out, op.ch)
                for p in checks.check_solution(sol, ch, power=op.power)]
    return checks.check_solution(out, op.ch, power=op.power, budget=op.budget)


def _bank(workload: str) -> dict:
    import workloads
    from secrecap import barrier_solver, errors

    solved, failed = {}, {}
    for c, cell, key in workloads.candidate_keys(workload):
        if cell.kind == "dual":
            ch = workloads.candidate(workload, c, cell, key, 1.0)[0].ch
            try:
                ref = barrier_solver.solve_minimax(ch, workloads.DUAL_REF_POWER)
            except (errors.SingularKktError, errors.SolverError) as exc:
                err = type(exc).__name__
            else:
                ref = ref.capacity_achievable
                errs = [_solve(op)[1]
                        for op in workloads.candidate(workload, c, cell, key, ref)]
                err = next((e for e in errs if e is not None), None)
        else:
            op, = workloads.candidate(workload, c, cell, key, None)
            out, err = _solve(op)
            if err is None:
                ref = ([[s.capacity_upper, s.gap_bound] for s in out]
                       if isinstance(out, tuple) else [out.capacity_upper, out.gap_bound])
        if err is None:
            solved[key] = ref
        else:
            failed[key] = err
        print(f"{key}: {err or 'solved'}", file=sys.stderr, flush=True)
    return {"solved": solved, "failed": failed}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from secrecap import barrier_solver, errors

    bank = {name: _bank(name) for name in ("small", "large", "dual")}
    batch = []
    for ch in workloads.batch_channels(0):
        try:
            sol = barrier_solver.solve_minimax(ch, workloads.BATCH_POWER)
            batch.append([sol.capacity_upper, sol.gap_bound])
        except (errors.SingularKktError, errors.SolverError):
            batch.append(None)
    bank["batch_c11"] = batch
    # One entry per line, so that a regenerated file diffs line by line.
    with open(workloads.BANK, "w") as fh:
        fh.write("{\n")
        for name in ("small", "large", "dual"):
            fh.write(f'"{name}": {{\n')
            for part in ("solved", "failed"):
                entries = bank[name][part]
                fh.write(f' "{part}": {{\n')
                fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in entries.items()))
                fh.write("\n }" + (",\n" if part == "solved" else "\n"))
            fh.write("},\n")
        fh.write('"batch_c11": [\n')
        fh.write(",\n".join(json.dumps(v) for v in batch))
        fh.write("\n]\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
