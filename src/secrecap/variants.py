"""Power-constraint variants: per-antenna caps and the dual problem of
minimizing total power under a secrecy-rate constraint.

Per-antenna caps are solved by ``barrier_solver.solve`` given a
``PerAntennaBudget``; ``solve_per_antenna`` is its shorthand.

The dual problem is solved by safeguarded Newton steps on the power budget,
one minimax solve per step. Cs(P) is concave and nondecreasing, so a tangent
taken below the target rate crosses it at or before P*, and its slope
dCs/dP = lambda*/2 comes with each solve. Steps therefore approach P* from
below; a step that leaves the bracket, or whose solve fails, falls back to
the bracket midpoint. A point within ``WARM_SHARE`` of the nearer bracket
end is solved warm from that end's saddle point, which runs only the last
barrier stage; if that solve fails, the point is solved cold. Every inner
solve goes through ``solve_minimax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barrier_solver import (
    PerAntennaBudget,
    SaddleSolution,
    SolverConfig,
    _per_antenna_start,  # noqa: F401  (tests import it from here)
    solve,
    solve_minimax,
)
from .channel import ChannelPair, Degradedness, classify_degraded
from .errors import BracketError, SolverError

__all__ = [
    "PerAntennaBudget",
    "DualTarget",
    "solve_per_antenna",
    "solve_dual",
]


@dataclass
class DualTarget:
    """Required secrecy rate (nats) with a bracketing power and tolerance.

    ``p_hi=None`` requests automatic bracket growth (doubling from 1).
    """

    rate: float
    p_hi: float | None = None
    tol_rate: float = 1e-6

    def __post_init__(self):
        for name in ("rate", "tol_rate", "p_hi"):
            value = getattr(self, name)
            if name == "p_hi" and value is None:
                continue
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


def solve_per_antenna(ch: ChannelPair, budget: PerAntennaBudget,
                      cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` under r_ii <= P_i (plus an optional total cap), all enforced
    by barrier terms; the reported gap bound is heuristic."""
    return solve(ch, budget, cfg)


_BRACKET_CAP = 2.0**40
_MAX_SEARCH = 200
WARM_SHARE = 0.05  # |p - p_end| <= WARM_SHARE * p starts warm from p_end


def _capacity_at(ch: ChannelPair, power: float, cfg: SolverConfig, *ends):
    """(Cs(power), solution). ``ends`` are (p, solution at p or None) pairs;
    within ``WARM_SHARE`` of the nearest p the solve starts warm from its
    solution, and a warm solve that fails is repeated cold."""
    p_end, sol_end = min(ends, key=lambda end: abs(power - end[0]), default=(0.0, None))
    if sol_end is not None and abs(power - p_end) <= WARM_SHARE * power:
        try:
            sol = solve_minimax(ch, power, cfg, warm=sol_end)
            return sol.capacity_achievable, sol
        except SolverError:
            pass
    sol = solve_minimax(ch, power, cfg)
    return sol.capacity_achievable, sol


def solve_dual(ch: ChannelPair, target: DualTarget,
               cfg: SolverConfig | None = None):
    """Minimum total power P* with Cs(P*) = target rate, by safeguarded
    Newton steps on the monotone map P -> Cs(P). Returns (P*, SaddleSolution
    at P*), P* as a float.

    Cs is concave and nondecreasing in P, so its tangent at a point below the
    rate lies on or above the curve and reaches the rate at or before P*: a
    Newton step from below never passes P*. The first tangent is at P = 0,
    where no solve is needed: its slope is lambda_max(W1 - W2)/2, so
    rate/slope <= P*. Each later tangent is at the last solved point below
    the rate, with slope lambda*/2 (envelope theorem). At finite t that
    slope overestimates dCs/dP by about m/(2tP), which only shortens the
    step. Points below the rate raise lo, points above it lower hi. A
    Newton point at or beyond hi, or one whose solve raises SolverError, is
    replaced by the bracket midpoint, whose own failures propagate. A step
    shorter than half the collapse tolerance is lengthened to it, so lo
    always moves. After a failed Newton point, or a lengthened one that
    still falls short, the search bisects until a new point below the rate
    gives a new tangent.

    The solutions at lo and hi are kept. Every earlier point lies at or
    below lo or at or above hi, so the nearer end is the nearest solved
    power; a point within 5% of it (``WARM_SHARE``) starts warm from its
    saddle point. A warm solve that fails is repeated cold before the
    safeguards above apply. A warm solve agrees with a cold one to within
    the Newton tolerance, so the search takes a cold search's steps.

    Raises BracketError when the rate is unattainable within the bracket
    (or within the automatic doubling cap when p_hi is not given).
    """
    kind, eigs = classify_degraded(ch)
    if kind is Degradedness.REVERSELY_DEGRADED:
        raise BracketError(
            "reversely degraded channel has zero secrecy capacity at any power"
        )

    grow = target.p_hi is None
    hi = 1.0 if grow else float(target.p_hi)
    c_hi, sol_hi = _capacity_at(ch, hi, cfg)
    while grow and c_hi < target.rate and hi < _BRACKET_CAP:
        hi *= 2.0
        c_hi, sol_hi = _capacity_at(ch, hi, cfg)
    if c_hi < target.rate - target.tol_rate:
        raise BracketError(
            f"target rate unattainable within the bracket: Cs({hi:g}) = "
            f"{c_hi:.6g} < {target.rate:.6g}"
        )

    if abs(c_hi - target.rate) <= target.tol_rate:
        return hi, sol_hi

    # Tangent at the last point below the rate: (lo, c_lo) with its slope.
    # P = 0 needs no solve, so there is no solution at lo yet.
    lo, c_lo, slope = 0.0, 0.0, 0.5 * float(eigs.max())
    sol_lo = None
    for _ in range(_MAX_SEARCH):
        # A lengthened step ends next to P*, and a point above the rate
        # there collapses the bracket at once.
        floor = 0.5e-12 * max(1.0, lo)
        step = (target.rate - c_lo) / slope if slope > 0 else math.inf
        p = lo + max(step, floor)
        sol = None
        if p < hi:
            try:
                c, sol = _capacity_at(ch, p, cfg, (lo, sol_lo), (hi, sol_hi))
            except SolverError:
                slope = 0.0  # bisect until a new point below the rate
        if sol is None:
            p, step = 0.5 * (lo + hi), math.inf
            c, sol = _capacity_at(ch, p, cfg, (lo, sol_lo), (hi, sol_hi))
        if abs(c - target.rate) <= target.tol_rate:
            return p, sol
        if c < target.rate:
            # A lengthened step that still falls short means the tangent
            # overestimated the slope: bisect until the next point below.
            lo, c_lo, sol_lo = p, c, sol
            slope = 0.5 * float(sol.lambda_star) if step >= floor else 0.0
        else:
            hi, sol_hi = p, sol
        if (hi - lo) <= 1e-12 * max(1.0, hi):
            break
    # Bracket collapsed before the rate tolerance was met; the upper edge
    # satisfies the rate constraint and is returned as the conservative P*.
    return hi, sol_hi
