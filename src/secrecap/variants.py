"""Power-constraint variants: per-antenna caps and the dual problem of
minimizing total power under a secrecy-rate constraint.

Per-antenna caps act through extra scalar barrier terms (1/t) ln(P_i - r_ii)
with no equality row, so the Newton system loses the multiplier block. A
total cap, when combined with per-antenna caps, is also kept as a barrier
term rather than an equality: forced full power is only justified under a
pure total-power constraint.

The dual problem is solved by bisection over the power budget, reusing the
minimax solver and the monotonicity of capacity in power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier_solver import (
    SaddleSolution,
    SolverConfig,
    _run_schedule,
    solve_minimax,
)
from .channel import ChannelPair, SaddleState, TransmitCovariance, classify_degraded, Degradedness
from .errors import BracketError
from .matcalc import sym, unvech, vech
from .objective import PerAntennaBarrierObjective, minimax_objective, secrecy_rate

__all__ = [
    "PerAntennaBudget",
    "DualTarget",
    "solve_per_antenna",
    "solve_dual",
]


@dataclass
class PerAntennaBudget:
    """Per-antenna power caps P_i, optionally combined with a total cap.

    A total cap at or above sum(P_i) is vacuous; it is dropped with the
    ``total_cap_vacuous`` flag set.
    """

    caps: np.ndarray
    total: float | None = None
    total_cap_vacuous: bool = False

    def __post_init__(self):
        self.caps = np.asarray(self.caps, dtype=float).ravel()
        if self.caps.size == 0 or np.any(self.caps <= 0):
            raise ValueError("per-antenna caps must be positive")
        if self.total is not None:
            if self.total <= 0:
                raise ValueError("total power cap must be positive")
            if self.total >= float(np.sum(self.caps)):
                self.total = None
                self.total_cap_vacuous = True


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


def _per_antenna_start(ch: ChannelPair, budget: PerAntennaBudget) -> SaddleState:
    caps = budget.caps
    scale = 0.5
    if budget.total is not None:
        scale = min(0.5, 0.5 * budget.total / float(np.sum(caps)))
    r0 = np.diag(caps * scale)
    return SaddleState(x=vech(r0), y=np.zeros(ch.n1 * ch.n2), lam=0.0)


def solve_per_antenna(ch: ChannelPair, budget: PerAntennaBudget,
                      cfg: SolverConfig | None = None) -> SaddleSolution:
    """Maximize the saddle objective under r_ii <= P_i (plus an optional
    total cap), all enforced by barrier terms.

    The reported gap bound counts every barrier term on both sides,
    (m + #scalar power barriers + n1 + n2)/t, and is heuristic: the
    per-antenna extension inherits convergence but not the exact constant
    of the total-power analysis.
    """
    if cfg is None:
        cfg = SolverConfig()
    if budget.caps.size != ch.m:
        raise ValueError(f"need {ch.m} per-antenna caps, got {budget.caps.size}")

    extra_terms = ch.m + (0 if budget.total is None else 1)

    def stage_gap(t):
        return (ch.m + extra_terms + ch.n1 + ch.n2) / t

    state, t_final, steps, gap_met, trace, reports = _run_schedule(
        lambda t: PerAntennaBarrierObjective(ch, t, budget.caps, budget.total),
        _per_antenna_start(ch, budget),
        cfg,
        stage_gap,
    )

    rm = sym(unvech(state.x))
    k21 = state.y.reshape((ch.n2, ch.n1), order="F")
    c_raw = secrecy_rate(ch, rm)
    power = float(np.trace(rm))
    return SaddleSolution(
        R_star=TransmitCovariance(rm, power),
        K21_star=k21,
        lambda_star=None,
        capacity_upper=minimax_objective(ch, rm, k21),
        capacity_achievable=max(0.0, c_raw),
        gap_bound=stage_gap(t_final),
        trace=trace,
        t_final=t_final,
        converged=True,
        gap_met=gap_met,
        newton_steps_total=steps,
        mode="per_antenna",
        gap_bound_heuristic=True,
        stage_reports=reports,
    )


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
    if cfg is None:
        cfg = SolverConfig()
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
