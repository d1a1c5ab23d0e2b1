"""Power-constraint variants: per-antenna caps and the dual problem of
minimizing total power under a secrecy-rate constraint.

Per-antenna caps are solved by ``barrier_solver.solve`` given a
``PerAntennaBudget``; ``solve_per_antenna`` is its shorthand.

The dual problem is solved by one bordered solve: the barrier schedule with
the rate row f(R, K) = rate in place of tr R = P
(``objective.RateBarrierObjective``), so that P = tr R is an unknown of the
Newton system (Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003, ch. 2). Its last iterate is the minimax central point
where f reaches the rate. Its covariance, purified
(``barrier_solver.purify``) and scaled along its ray until C = rate, is the
answer, with no further solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .barrier_solver import (
    PerAntennaBudget,
    SaddleSolution,
    SolverConfig,
    _solve_together,
    purify,
    solve,
    solve_minimax,
)
from .channel import (
    ChannelPair,
    Degradedness,
    TransmitCovariance,
    classify_degraded,
    initial_point,
)
from .errors import BracketError, SolverError
from .objective import RateBarrierObjective, minimax_objective, secrecy_rate

__all__ = [
    "PerAntennaBudget",
    "DualTarget",
    "solve_per_antenna",
    "solve_dual",
]


@dataclass
class DualTarget:
    """Required secrecy rate (nats), the power ``p_hi`` that bounds the
    answer from above, and the rate tolerance at ``p_hi``."""

    rate: float
    p_hi: float
    tol_rate: float = 1e-6

    def __post_init__(self):
        for name in ("rate", "tol_rate", "p_hi"):
            value = getattr(self, name)
            if value is None or not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


def solve_per_antenna(ch: ChannelPair, budget: PerAntennaBudget,
                      cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` under r_ii <= P_i (plus an optional total cap), all enforced
    by barrier terms; the reported gap bound is heuristic."""
    return solve(ch, budget, cfg)


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
                                    [initial_point(ch, power)], "minimax", cfg)
        if not isinstance(result, SolverError):
            return result, failed
        failed += result.trace
    return None, failed


def _ray_to_rate(ch: ChannelPair, r: np.ndarray, rate: float, p_max: float):
    """c·r at the c, to the last bit, where C(c·r) reaches the rate with
    tr(c·r) <= p_max, or None when C stays below the rate up to p_max.
    With r = S S', C(c·r) = 1/2 sum ln(1 + c a) - 1/2 sum ln(1 + c b) over
    the eigenvalues a of S'W1 S and b of S'W2 S: no step factors a matrix."""
    w, v = np.linalg.eigh(r)
    s = v * np.sqrt(np.clip(w, 0.0, None))
    a, b = (np.linalg.eigvalsh(s.T @ g @ s).tolist() for g in (ch.W1, ch.W2))

    def reaches(c):
        return 0.5 * (sum(math.log1p(c * x) for x in a)
                      - sum(math.log1p(c * x) for x in b)) >= rate

    c_max = p_max / float(np.trace(r))
    lo, hi = 0.0, min(1.0, c_max)
    while not reaches(hi):
        if hi >= c_max:
            return None
        lo, hi = hi, min(2.0 * hi, c_max)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:  # bisect down to adjacent floats
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return hi * r


def _at_covariance(ch: ChannelPair, sol: SaddleSolution, r: np.ndarray) -> SaddleSolution:
    """``sol`` with R* = r at its power tr r, and C and f evaluated there."""
    return replace(sol, R_star=TransmitCovariance(r, float(np.trace(r))),
                   capacity_upper=minimax_objective(ch, r, sol.K21_star),
                   capacity_achievable=max(0.0, secrecy_rate(ch, r)))


def _upper_end(ch: ChannelPair, target: DualTarget, cfg: SolverConfig) -> SaddleSolution:
    """The minimax solution at ``p_hi`` with R* purified and scaled down its
    ray to the rate. A purified C short of the rate by at most tol_rate is
    kept; by more, BracketError."""
    hi = float(target.p_hi)
    sol = solve_minimax(ch, hi, cfg)
    r = purify(ch, sol.R_star.R, sol.K21_star)
    r_star = _ray_to_rate(ch, r, target.rate, hi)
    if r_star is None and secrecy_rate(ch, r) < target.rate - target.tol_rate:
        raise BracketError(
            f"target rate unattainable within the bracket: Cs({hi:g}) = "
            f"{secrecy_rate(ch, r):.6g} < {target.rate:.6g}"
        )
    return _at_covariance(ch, sol, r if r_star is None else r_star)


def solve_dual(ch: ChannelPair, target: DualTarget,
               cfg: SolverConfig | None = None):
    """Minimum total power P* with Cs(P*) = target rate. Returns (P*,
    SaddleSolution at P*), P* = tr R* as a float, with C(R*) = rate to the
    last bit, or at most tol_rate below it at p_hi.

    The bordered solve (``RateBarrierObjective``) starts from R = (P0/m) I
    at the tangent bound P0 = rate / (lambda_max(W1 - W2)/2) <= P*, and if a
    stage fails, once more from p_hi. Its R_b, at P_b = tr R_b, is purified
    and scaled down or up its ray to C = rate within p_hi. K21*, lambda*,
    the gap bound and the trace stay the bordered solve's; f(R*, K21*) >=
    C(R*) is evaluated at R*. When both starts fail or the ray stops short
    of the rate, ``_upper_end`` answers instead: one minimax solve at p_hi,
    and a SolverError of it carries the trace rows of the failed bordered
    starts ahead of its own.

    Raises BracketError when the rate is unattainable within p_hi, or at
    any power because lambda_max(W1 - W2) <= 0 or the channel is reversely
    degraded.
    """
    kind, eigs = classify_degraded(ch)
    slope = 0.5 * float(eigs.max())
    # Cs(P) <= slope * P; a zero W1 - W2 counts as degraded but has slope 0
    if kind is Degradedness.REVERSELY_DEGRADED or slope <= 0:
        raise BracketError(
            "zero secrecy capacity at any power: W1 - W2 has no eigenvalue "
            "above its tolerance"
        )
    cfg = SolverConfig() if cfg is None else cfg
    p_hi = float(target.p_hi)
    sol, failed = _bordered_start(ch, target, cfg, [target.rate / slope, p_hi])
    r_star = None if sol is None else _ray_to_rate(
        ch, purify(ch, sol.R_star.R, sol.K21_star), target.rate, p_hi)
    if r_star is not None:
        sol = _at_covariance(ch, sol, r_star)
    else:
        try:
            sol = _upper_end(ch, target, cfg)
        except SolverError as exc:
            exc.trace = failed + exc.trace
            raise
    return sol.R_star.power, sol
