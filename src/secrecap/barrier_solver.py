"""Outer barrier loop with warm starts, gap-bound stopping and KKT
certificate extraction.

The schedule solves the barrier-augmented saddle system at t = t0, mu*t0,
mu^2*t0, ... (capped at t_max), reusing the previous primal-dual iterate as
the start for the next stage. Stops early once the capacity gap bound
max(m, n1+n2)/t drops below ``eps_gap`` when that tolerance is set;
otherwise the full schedule runs to t_max, mirroring the usual experiment
protocol.

Reported capacities carry the 1/2 rate factor (nats); the dual variable and
certificate residuals live in the solver's log-det convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .channel import (
    ChannelPair,
    Degradedness,
    SaddleState,
    TransmitCovariance,
    classify_degraded,
    initial_point,
)
from .errors import SingularKktError, SolverError
from .kkt_newton import newton_solve
from .matcalc import sym, unvech, vech
from .objective import (
    BarrierObjective,
    DegradedBarrierObjective,
    PerAntennaBarrierObjective,
    minimax_objective,
    secrecy_rate,
)

__all__ = [
    "SolverConfig",
    "TraceRecord",
    "SaddleSolution",
    "KktCertificate",
    "gap_bound",
    "PerAntennaBudget",
    "solve",
    "solve_minimax",
    "solve_degraded",
    "extract_certificate",
]


@dataclass(frozen=True)
class SolverConfig:
    """Line-search, barrier-schedule and tolerance knobs.

    ``eps_gap=None`` disables gap-driven early stopping, so the schedule
    runs all the way to ``t_max``.
    """

    alpha: float = 0.3
    beta: float = 0.5
    t0: float = 100.0
    mu: float = 10.0
    t_max: float = 1e5
    eps_gap: float | None = None
    eps_newton: float = 1e-10
    max_newton_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.mu <= 1:
            raise ValueError("mu must exceed 1")
        if self.t_max < self.t0:
            raise ValueError("t_max must be >= t0")
        if self.eps_newton <= 0:
            raise ValueError("eps_newton must be positive")


@dataclass(frozen=True)
class TraceRecord:
    """One accepted Newton step: barrier parameter, per-stage step index,
    residual norm after the step, rates (nats) and the accepted step size."""

    t: float
    iteration: int
    residual: float
    f: float
    C: float
    step_size: float

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "iter": self.iteration,
            "residual": self.residual,
            "f": self.f,
            "C": self.C,
            "step_size": self.step_size,
        }


@dataclass
class SaddleSolution:
    """Converged saddle point plus diagnostics.

    capacity_achievable is C(R*) clamped at zero; capacity_upper is the
    saddle functional f(R*, K*) (both in nats). For the degraded fast path
    (no K block) capacity_upper is C(R*) plus the proven gap bound.
    """

    R_star: TransmitCovariance
    K21_star: np.ndarray
    lambda_star: float | None
    capacity_upper: float
    capacity_achievable: float
    gap_bound: float
    trace: list[TraceRecord]
    t_final: float
    converged: bool
    gap_met: bool | None
    newton_steps_total: int
    mode: str
    gap_bound_heuristic: bool = False
    stage_reports: list = field(default_factory=list)  # (t, NewtonReport) pairs


@dataclass(frozen=True)
class KktCertificate:
    """Post-hoc stationarity check against the original saddle system.

    The multiplier approximation for the R >= 0 constraint is
    M2 = R^{-1}/t; its complementarity defect tr(M2 R) equals m/t by the
    trace identity, recorded as ``complementarity_R``. The multiplier for
    K >= 0 and the diagonal-block multiplier are not separately recoverable
    from the barrier iterate; ``stationarity_residual_K`` measures the
    off-diagonal-block defect of the K-stationarity equation, where both of
    those multipliers vanish.
    """

    lam: float
    M2_approx: np.ndarray
    stationarity_residual_R: float
    stationarity_residual_K: float
    complementarity_R: float


def gap_bound(m: int, n1: int, n2: int, t: float) -> float:
    """Capacity accuracy guarantee of the barrier solution at parameter t."""
    if t <= 0:
        raise ValueError("barrier parameter t must be positive")
    return max(m, n1 + n2) / t


def _schedule(cfg: SolverConfig):
    t = cfg.t0
    while True:
        yield t
        if t >= cfg.t_max * (1.0 - 1e-12):
            return
        t = min(t * cfg.mu, cfg.t_max)


def _zero_solution(ch: ChannelPair, power: float, mode: str) -> SaddleSolution:
    r0 = TransmitCovariance(np.zeros((ch.m, ch.m)), power)
    return SaddleSolution(
        R_star=r0,
        K21_star=np.zeros((ch.n2, ch.n1)),
        lambda_star=0.0,
        capacity_upper=0.0,
        capacity_achievable=0.0,
        gap_bound=0.0,
        trace=[],
        t_final=math.inf,
        converged=True,
        gap_met=True,
        newton_steps_total=0,
        mode=mode,
    )


def _run_schedule(make_objective, state: SaddleState, cfg: SolverConfig,
                  stage_gap):
    """Warm-started Newton solves over the t schedule.

    ``make_objective(t)`` builds the stage objective, ``stage_gap(t)`` the
    gap bound. Each accepted step adds a trace row with the objective's
    ``trace_rates`` at the new iterate; a SolverError or SingularKktError
    leaving this function carries the rows recorded so far. Returns
    (state, t_final, total_steps, gap_met, trace, stage_reports).
    """
    trace: list[TraceRecord] = []
    reports = []
    total_steps = 0
    t_final = cfg.t0
    gap_met: bool | None = None
    for t in _schedule(cfg):
        obj = make_objective(t)

        def record(k, st, rnorm, s, obj=obj, t=t):
            f, c = obj.trace_rates(st)
            trace.append(TraceRecord(t=t, iteration=k, residual=rnorm, f=f, C=c,
                                     step_size=s))

        try:
            state, report = newton_solve(
                obj,
                state,
                eps=cfg.eps_newton,
                max_iter=cfg.max_newton_iter,
                alpha=cfg.alpha,
                beta=cfg.beta,
                callback=record,
            )
        except SingularKktError as exc:
            exc.trace = trace
            raise
        total_steps += report.iterations
        reports.append((t, report))
        t_final = t
        if not report.converged:
            raise SolverError(
                f"Newton stage at t={t:g} failed: {report.failure}", trace
            )
        if cfg.eps_gap is not None and stage_gap(t) <= cfg.eps_gap:
            gap_met = True
            break
    if cfg.eps_gap is not None and gap_met is None:
        gap_met = stage_gap(t_final) <= cfg.eps_gap
    return state, t_final, total_steps, gap_met, trace, reports


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
        if self.caps.size == 0 or not np.all((self.caps > 0) & (self.caps < np.inf)):
            raise ValueError(f"caps must be finite and positive, got {self.caps}")
        if self.total is not None:
            if not 0 < self.total < np.inf:
                raise ValueError(f"total must be finite and positive, got {self.total}")
            if self.total >= float(np.sum(self.caps)):
                self.total = None
                self.total_cap_vacuous = True


def _per_antenna_start(ch: ChannelPair, budget: PerAntennaBudget) -> SaddleState:
    caps = budget.caps
    scale = 0.5
    if budget.total is not None:
        scale = min(0.5, 0.5 * budget.total / float(np.sum(caps)))
    r0 = np.diag(caps * scale)
    return SaddleState(x=vech(r0), y=np.zeros(ch.n1 * ch.n2), lam=0.0)


SOLVE_MODES = ("auto", "minimax", "degraded", "per_antenna")


def solve(ch: ChannelPair, power: float | PerAntennaBudget,
          cfg: SolverConfig | None = None, mode: str = "auto") -> SaddleSolution:
    """Globally optimal transmit covariance via the saddle-point barrier
    method, for a total budget P or a ``PerAntennaBudget``.

    Given P, ``minimax`` solves over (R, K) with tr R = P on any channel and
    short-circuits a reversely degraded one to the exact zero-capacity
    solution; ``degraded`` requires W1 >= W2 and maximizes
    C(R) + (1/t) ln|R| without the noise-covariance block, with gap bound
    m/t; ``auto`` takes the degraded path whenever it applies. A budget
    always solves per-antenna: r_ii <= P_i and an optional total cap act as
    barrier terms with no equality row. Its gap bound counts every barrier
    term on both sides, (m + #scalar power barriers + n1 + n2)/t, and is
    heuristic: the per-antenna extension inherits convergence but not the
    exact constant of the total-power analysis.
    """
    if cfg is None:
        cfg = SolverConfig()
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    if isinstance(power, PerAntennaBudget):
        budget = power  # the objective checks that it has one cap per antenna
        mode = "per_antenna"
        extra_terms = ch.m + (0 if budget.total is None else 1)
        objective, args = PerAntennaBarrierObjective, (budget.caps, budget.total)
        start = _per_antenna_start(ch, budget)

        def stage_gap(t):
            return (ch.m + extra_terms + ch.n1 + ch.n2) / t
    else:
        if mode == "per_antenna":
            raise ValueError("mode 'per_antenna' needs a PerAntennaBudget")
        if not 0 < power < np.inf:
            raise ValueError(f"power must be finite and positive, got {power}")
        kind, eigs = classify_degraded(ch)
        if mode == "auto":
            mode = "degraded" if kind is Degradedness.DEGRADED else "minimax"
        if mode == "degraded":
            if kind is not Degradedness.DEGRADED:
                raise ValueError(
                    f"solve_degraded requires a degraded channel, got {kind.value} "
                    f"(difference eigenvalues {eigs})"
                )
            objective, args = DegradedBarrierObjective, (power,)
            start = SaddleState(
                x=vech(np.eye(ch.m) * (power / ch.m)), y=np.zeros(0), lam=0.0
            )

            def stage_gap(t):
                return ch.m / t
        else:
            if kind is Degradedness.REVERSELY_DEGRADED:
                return _zero_solution(ch, power, mode="zero")
            objective, args = BarrierObjective, (power,)
            start = initial_point(ch, power)
            stage_gap = partial(gap_bound, ch.m, ch.n1, ch.n2)

    state, t_final, steps, gap_met, trace, reports = _run_schedule(
        lambda t: objective(ch, t, *args), start, cfg, stage_gap
    )

    rm = sym(unvech(state.x))
    c_raw = secrecy_rate(ch, rm)
    bound = stage_gap(t_final)
    if mode == "degraded":
        k21 = np.zeros((ch.n2, ch.n1))
        upper = c_raw + bound
    else:
        k21 = state.y.reshape((ch.n2, ch.n1), order="F")
        upper = minimax_objective(ch, rm, k21)
    per_antenna = mode == "per_antenna"
    return SaddleSolution(
        R_star=TransmitCovariance(rm, float(np.trace(rm)) if per_antenna else power),
        K21_star=k21,
        lambda_star=None if per_antenna else -state.lam,
        capacity_upper=upper,
        capacity_achievable=max(0.0, c_raw),
        gap_bound=bound,
        trace=trace,
        t_final=t_final,
        converged=True,
        gap_met=gap_met,
        newton_steps_total=steps,
        mode=mode,
        gap_bound_heuristic=per_antenna,
        stage_reports=reports,
    )


def solve_minimax(ch: ChannelPair, power: float,
                  cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` in ``minimax`` mode: works for any channel."""
    return solve(ch, power, cfg, mode="minimax")


def solve_degraded(ch: ChannelPair, power: float,
                   cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` in ``degraded`` mode: requires W1 >= W2."""
    return solve(ch, power, cfg, mode="degraded")


def extract_certificate(sol: SaddleSolution,
                        obj: BarrierObjective) -> KktCertificate:
    """Stationarity residuals of the original saddle KKT system at the
    barrier solution held by ``sol``; ``obj`` must be the stage objective at
    ``sol.t_final``. All quantities are in the solver's log-det convention."""
    ch = obj.channel
    rm = sol.R_star.R
    k21 = sol.K21_star
    fac = obj.factors(SaddleState(x=vech(rm), y=k21.ravel(order="F"), lam=0.0))
    t = obj.t
    m2 = fac.Rinv / t
    lam = 0.0 if sol.lambda_star is None else float(sol.lambda_star)
    res_r = np.linalg.norm(fac.Z1 - fac.Z2 + m2 - lam * np.eye(ch.m), "fro")
    gk = fac.G - (1.0 + 1.0 / t) * fac.Kinv
    res_k = math.sqrt(2.0) * np.linalg.norm(gk[ch.n1:, : ch.n1], "fro")
    return KktCertificate(
        lam=lam,
        M2_approx=m2,
        stationarity_residual_R=float(res_r),
        stationarity_residual_K=float(res_k),
        complementarity_R=ch.m / t,
    )
