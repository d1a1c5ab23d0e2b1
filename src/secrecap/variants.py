"""Power-constraint variants: per-antenna caps and the dual problem of
minimizing total power under a secrecy-rate constraint.

Per-antenna caps are solved by ``barrier_solver.solve`` given a
``PerAntennaBudget``; ``solve_per_antenna`` is its shorthand.

The dual problem is solved in two parts. The bordered solve runs the
barrier schedule once with the rate row f(R, K) = rate in place of
tr R = P (``objective.RateBarrierObjective``), so that P = tr R is an
unknown of the Newton system: continuation with a bordered system
(Allgower & Georg, Introduction to Numerical Continuation Methods, SIAM
2003, ch. 2). Its last iterate is the minimax central point at the power
P_b where f reaches the rate. Safeguarded Newton steps on the power budget
then finish from P_b, one minimax solve per step: Cs(P) is concave and
nondecreasing, so a tangent taken below the target rate crosses it at or
before P*, and its slope dCs/dP = lambda*/2 comes with each solve. The
bordered point is the search's first lower bracket end, and the upper end
p_hi is solved only when the search needs it. When the bordered solve
fails from both of its starts, or ends above p_hi, the search runs alone
from P = 0 after solving p_hi. A point within ``WARM_SHARE`` of the nearer
solved bracket end is solved warm from that end's saddle point, which runs
only the last barrier stage; if that solve fails, the point is solved
cold. Every solve of the search goes through ``solve_minimax``, so the
answer is a minimax solution at P*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barrier_solver import (
    PerAntennaBudget,
    SaddleSolution,
    SolverConfig,
    _schedule,
    _solve_together,
    solve,
    solve_minimax,
)
from .channel import ChannelPair, Degradedness, classify_degraded, initial_point
from .errors import BracketError, SolverError
from .objective import RateBarrierObjective

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
    within ``WARM_SHARE`` of the nearest p with a solution the solve starts
    warm from it, and a warm solve that fails is repeated cold."""
    p_end, sol_end = min(((p, sol) for p, sol in ends if sol is not None),
                         key=lambda end: abs(power - end[0]), default=(0.0, None))
    if sol_end is not None and abs(power - p_end) <= WARM_SHARE * power:
        try:
            sol = solve_minimax(ch, power, cfg, warm=sol_end)
            return sol.capacity_achievable, sol
        except SolverError:
            pass
    sol = solve_minimax(ch, power, cfg)
    return sol.capacity_achievable, sol


def _bordered_start(ch: ChannelPair, target: DualTarget, cfg: SolverConfig,
                    powers: list):
    """The bordered solve: the schedule of ``RateBarrierObjective``, whose
    last stage point is the minimax central point at P_b = tr R where
    f(R, K) = rate. Starts from the standard point at each of ``powers`` in
    turn until one solves every stage. Returns (its minimax SaddleSolution
    at P_b or None, the trace rows of the starts that failed)."""
    failed = []
    for power in powers:
        (result,) = _solve_together(RateBarrierObjective, (target.rate,), [ch],
                                    [initial_point(ch, power)], "minimax", cfg,
                                    _schedule(cfg))
        if not isinstance(result, SolverError):
            return result, failed
        failed += result.trace
    return None, failed


def _upper_end(ch: ChannelPair, target: DualTarget, cfg: SolverConfig, lo: float,
               sol_lo=None):
    """(hi, Cs(hi), solution at hi) of the bracket above ``lo``: ``p_hi``,
    or without it the first of 1, 2, 4, ... above lo whose Cs reaches the
    rate (up to ``_BRACKET_CAP``). Raises BracketError when Cs(hi) falls
    short of the rate by more than its tolerance."""
    grow = target.p_hi is None
    hi = 1.0 if grow else float(target.p_hi)
    while grow and hi <= lo:
        hi *= 2.0
    c_hi, sol_hi = _capacity_at(ch, hi, cfg, (lo, sol_lo))
    while grow and c_hi < target.rate and hi < _BRACKET_CAP:
        hi *= 2.0
        c_hi, sol_hi = _capacity_at(ch, hi, cfg)
    if c_hi < target.rate - target.tol_rate:
        raise BracketError(
            f"target rate unattainable within the bracket: Cs({hi:g}) = "
            f"{c_hi:.6g} < {target.rate:.6g}"
        )
    return hi, c_hi, sol_hi


def solve_dual(ch: ChannelPair, target: DualTarget,
               cfg: SolverConfig | None = None):
    """Minimum total power P* with Cs(P*) = target rate. Returns (P*,
    SaddleSolution at P*), P* as a float; the solution is always that of a
    ``solve_minimax`` solve at P*, with |C(R*) - rate| <= tol_rate, or the
    upper end of a bracket that collapsed first.

    First the bordered solve (``RateBarrierObjective``): the barrier
    schedule with the rate row f(R, K) = rate in place of tr R = P, which
    ends at the central point at the last stage's t where f reaches the
    rate, at P_b = tr R. It starts from R = (P0/m) I at the tangent bound
    P0 = rate / (lambda_max(W1 - W2)/2) <= P*, and if a stage fails,
    once more from p_hi (1 without it).

    Then Newton steps on the monotone map P -> Cs(P), from lo = P_b when
    that start solved and P_b <= p_hi. C(R_b) <= f = rate, so P_b is below
    the rate, with slope lambda_b/2, and it is the lower bracket end for
    warm starts. The upper end p_hi is solved only once the search needs
    it: for a midpoint, or when the bracket collapses. Otherwise (both
    starts failed, or P_b > p_hi) the search runs from lo = 0 after
    solving p_hi up front, where the first tangent needs no solve: its
    slope is lambda_max(W1 - W2)/2.

    The search: Cs is concave and nondecreasing in P, so its tangent at a
    point below the rate lies on or above the curve and reaches the rate at
    or before P*: a Newton step from below never passes P*. Each tangent is
    at the last solved point below the rate, with slope lambda*/2 (envelope
    theorem). At finite t that slope overestimates dCs/dP by about
    m/(2tP), which only shortens the step. Points below the rate raise lo,
    points above it lower hi. A Newton point at or beyond hi, or one whose
    solve raises SolverError, is replaced by the bracket midpoint, whose own
    failures propagate. A step shorter than half the collapse tolerance is
    lengthened to it, so lo always moves. After a failed Newton point, or a
    lengthened one that still falls short, the search bisects until a new
    point below the rate gives a new tangent.

    The solutions at lo and hi are kept. Every earlier point lies at or
    below lo or at or above hi, so the nearer end is the nearest solved
    power; a point within 5% of it (``WARM_SHARE``) starts warm from its
    saddle point. A warm solve that fails is repeated cold before the
    safeguards above apply. A warm solve agrees with a cold one to within
    the Newton tolerance, so the search takes a cold search's steps.

    Raises BracketError when the rate is unattainable within the bracket
    (or within the automatic doubling cap when p_hi is not given). A
    SolverError that ends the search carries the trace rows of any failed
    bordered starts ahead of its own.
    """
    kind, eigs = classify_degraded(ch)
    if kind is Degradedness.REVERSELY_DEGRADED:
        raise BracketError(
            "reversely degraded channel has zero secrecy capacity at any power"
        )
    cfg = SolverConfig() if cfg is None else cfg
    slope = 0.5 * float(eigs.max())
    p0 = target.rate / slope if slope > 0 else math.inf
    p_restart = 1.0 if target.p_hi is None else float(target.p_hi)
    sol_b, failed = _bordered_start(ch, target, cfg,
                                    [p for p in (p0, p_restart) if p < math.inf])
    try:
        return _search(ch, target, cfg, slope, sol_b)
    except SolverError as exc:
        exc.trace = failed + exc.trace
        raise


def _search(ch: ChannelPair, target: DualTarget, cfg: SolverConfig, slope: float,
            sol_b: SaddleSolution | None):
    """The Newton search on P of ``solve_dual``, from the bordered solution
    ``sol_b`` or, without one or beyond p_hi, from P = 0 with ``slope``."""
    if sol_b is not None and (target.p_hi is None or sol_b.R_star.power <= target.p_hi):
        lo, c_lo, sol_lo = sol_b.R_star.power, sol_b.capacity_achievable, sol_b
        slope = 0.5 * float(sol_b.lambda_star)
        hi, sol_hi = math.inf if target.p_hi is None else float(target.p_hi), None
    else:
        hi, c_hi, sol_hi = _upper_end(ch, target, cfg, 0.0)
        if abs(c_hi - target.rate) <= target.tol_rate:
            return hi, sol_hi
        # The tangent at P = 0 needs no solve, so there is no solution at lo.
        lo, c_lo, sol_lo = 0.0, 0.0, None
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
            if sol_hi is None:  # the midpoint needs the bracket's upper end
                hi, c_hi, sol_hi = _upper_end(ch, target, cfg, lo, sol_lo)
                if abs(c_hi - target.rate) <= target.tol_rate:
                    return hi, sol_hi
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
        if hi < math.inf and (hi - lo) <= 1e-12 * max(1.0, hi):
            break
    # Bracket collapsed before the rate tolerance was met; the upper edge
    # satisfies the rate constraint and is returned as the conservative P*.
    if sol_hi is None:
        hi, _, sol_hi = _upper_end(ch, target, cfg, lo, sol_lo)
    return hi, sol_hi
