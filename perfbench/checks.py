"""Output checks. All but ``check_reference`` need no reference solution.

Each check returns a list of problems; an empty list means the output is
valid. Values are recomputed with ``secrecap.objective`` directly, whose
functions the tracer never wraps.
"""

from __future__ import annotations

import math

import numpy as np

from secrecap import objective

ORDER_TOL = 1e-9      # C <= f + ORDER_TOL
RECOMPUTE_RTOL = 1e-9
POWER_RTOL = 1e-8


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_solution(sol, ch, power=None, budget=None) -> list[str]:
    """Validity of a ``SaddleSolution`` for a total-power budget ``power`` or
    a ``PerAntennaBudget``."""
    problems = []
    r = sol.R_star.R
    c, f = sol.capacity_achievable, sol.capacity_upper
    if not (math.isfinite(c) and math.isfinite(f) and math.isfinite(sol.gap_bound)):
        return [f"non-finite result: C={c}, f={f}, gap={sol.gap_bound}"]
    tr = float(np.trace(r))
    eig_min = float(np.linalg.eigvalsh(r).min())
    if eig_min < -1e-12 * max(1.0, tr):
        problems.append(f"R* not PSD: smallest eigenvalue {eig_min:.3e}")
    if budget is None:
        if not _close(tr, power, POWER_RTOL):
            problems.append(f"tr R* = {tr!r} != P = {power!r}")
    else:
        diag = np.diag(r)
        if np.any(diag > budget.caps * (1.0 + POWER_RTOL)):
            problems.append(f"per-antenna caps exceeded: diag {diag} > caps {budget.caps}")
        if budget.total is not None and tr > budget.total * (1.0 + POWER_RTOL):
            problems.append(f"total cap exceeded: tr R* = {tr!r} > {budget.total!r}")
    k21 = np.asarray(sol.K21_star)
    if k21.size and not np.linalg.norm(k21, 2) < 1.0:
        problems.append(f"|K21*|_2 = {np.linalg.norm(k21, 2)!r} is not < 1")
    if not c <= f + ORDER_TOL:
        problems.append(f"C = {c!r} exceeds f = {f!r}")
    c_raw = objective.secrecy_rate(ch, r)
    if not _close(max(0.0, c_raw), c, RECOMPUTE_RTOL):
        problems.append(f"reported C = {c!r}, recomputed {max(0.0, c_raw)!r}")
    if sol.mode == "degraded":
        # The degraded fast path reports f as C(R*) plus its proven bound.
        f_re = c_raw + sol.gap_bound
    else:
        f_re = objective.minimax_objective(ch, r, k21)
    if not _close(f_re, f, RECOMPUTE_RTOL):
        problems.append(f"reported f = {f!r}, recomputed {f_re!r}")
    return problems


def check_dual(p_star, sol, ch, target) -> list[str]:
    problems = check_solution(sol, ch, power=p_star)
    if not sol.capacity_achievable >= target.rate - target.tol_rate:
        problems.append(
            f"dual solution misses the target: C = {sol.capacity_achievable!r} "
            f"< {target.rate!r} - {target.tol_rate!r}"
        )
    return problems


def check_batch(summary, count: int, seed: int) -> list[str]:
    """Internal consistency of a ``run_batch`` summary."""
    rows = summary.get("per_channel", [])
    if [r["index"] for r in rows] != list(range(count)):
        return [f"batch rows are not channels 0..{count - 1}"]
    problems = []
    if summary["params"]["seed"] != seed or summary["params"]["count"] != count:
        problems.append(f"batch params echo {summary['params']}")
    steps = [r["steps"] for r in rows if r["converged"]]
    failures = sum(1 for r in rows if not r["converged"])
    if summary["failures"] != failures:
        problems.append(f"failure count {summary['failures']} != {failures}")
    if sum(summary["histogram"].values()) != len(steps):
        problems.append("histogram does not count every converged channel")
    if steps and summary["stats"]["median"] != float(np.median(steps)):
        problems.append(f"median {summary['stats']['median']} != {np.median(steps)}")
    for r in rows:
        if r["converged"] and not (r["steps"] > 0 and math.isfinite(r["capacity_nats"])
                                   and r["capacity_nats"] >= 0.0):
            problems.append(f"channel {r['index']}: invalid row {r}")
    return problems


def check_reference(f: float, gap: float, ref) -> list[str]:
    """f against the stored reference value: both are within their own gap
    bound of the saddle value, so they agree within the sum of the bounds."""
    if ref is None:
        return []
    f_ref, gap_ref = ref
    if abs(f - f_ref) > gap + gap_ref:
        return [f"f = {f!r} differs from the reference {f_ref!r} by more than "
                f"{gap + gap_ref:.3e}"]
    return []
