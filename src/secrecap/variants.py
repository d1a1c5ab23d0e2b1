"""Power-constraint variants: per-antenna caps and the dual problem of
minimizing total power under a secrecy-rate constraint.

Per-antenna caps are solved by ``barrier_solver.solve`` given a
``PerAntennaBudget``; ``solve_per_antenna`` is its shorthand.

The dual problem is solved by bisection over the power budget, reusing the
minimax solver and the monotonicity of capacity in power.
"""

from __future__ import annotations

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
from .errors import BracketError

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
        if self.rate <= 0:
            raise ValueError("target secrecy rate must be positive")
        if self.tol_rate <= 0:
            raise ValueError("rate tolerance must be positive")


def solve_per_antenna(ch: ChannelPair, budget: PerAntennaBudget,
                      cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` under r_ii <= P_i (plus an optional total cap), all enforced
    by barrier terms; the reported gap bound is heuristic."""
    return solve(ch, budget, cfg)


_BRACKET_CAP = 2.0**40
_MAX_BISECT = 200


def _capacity_at(ch: ChannelPair, power: float, cfg: SolverConfig):
    sol = solve_minimax(ch, power, cfg)
    return sol.capacity_achievable, sol


def solve_dual(ch: ChannelPair, target: DualTarget,
               cfg: SolverConfig | None = None):
    """Minimum total power P* with Cs(P*) = target rate, via bisection on
    the monotone map P -> Cs(P). Returns (P*, SaddleSolution at P*).

    Raises BracketError when the rate is unattainable within the bracket
    (or within the automatic doubling cap when p_hi is not given).
    """
    kind, _ = classify_degraded(ch)
    if kind is Degradedness.REVERSELY_DEGRADED:
        raise BracketError(
            "reversely degraded channel has zero secrecy capacity at any power"
        )

    if target.p_hi is not None:
        hi = float(target.p_hi)
        c_hi, sol_hi = _capacity_at(ch, hi, cfg)
        if c_hi < target.rate - target.tol_rate:
            raise BracketError(
                f"target rate unattainable within bracket: Cs({hi:g}) = "
                f"{c_hi:.6g} < {target.rate:.6g}"
            )
    else:
        hi = 1.0
        c_hi, sol_hi = _capacity_at(ch, hi, cfg)
        while c_hi < target.rate and hi < _BRACKET_CAP:
            hi *= 2.0
            c_hi, sol_hi = _capacity_at(ch, hi, cfg)
        if c_hi < target.rate - target.tol_rate:
            raise BracketError(
                f"target rate unattainable: Cs({hi:g}) = {c_hi:.6g} < "
                f"{target.rate:.6g} at the bracket growth cap"
            )

    if abs(c_hi - target.rate) <= target.tol_rate:
        return hi, sol_hi

    lo = 0.0
    best_p, best_sol = hi, sol_hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        c_mid, sol_mid = _capacity_at(ch, mid, cfg)
        if abs(c_mid - target.rate) <= target.tol_rate:
            return mid, sol_mid
        if c_mid < target.rate:
            lo = mid
        else:
            hi, best_p, best_sol = mid, mid, sol_mid
        if (hi - lo) <= 1e-12 * max(1.0, hi):
            break
    # Bracket collapsed before the rate tolerance was met; the upper edge
    # satisfies the rate constraint and is returned as the conservative P*.
    return best_p, best_sol
