"""Outer barrier loop with warm starts, gap-bound stopping and KKT
certificate extraction.

The schedule solves the barrier-augmented saddle system at t = t0, mu*t0,
mu^2*t0, ... (capped at t_max), reusing the previous primal-dual iterate as
the start for the next stage. Stops early once the stage objective's gap
bound drops below ``eps_gap`` when that tolerance is set; otherwise the full
schedule runs to t_max, mirroring the usual experiment protocol. A solve
warm-started from a nearby minimax solution runs only that solution's last
stage.

Reported capacities carry the 1/2 rate factor (nats); the dual variable and
certificate residuals live in the solver's log-det convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .channel import (
    ChannelPair,
    Degradedness,
    SaddleState,
    TransmitCovariance,
    classify_degraded,
    initial_point,
)
from .errors import SolverError
from .kkt_newton import newton_solve, residual
from .matcalc import vec, vech
from .objective import (
    BarrierObjective,
    DegradedBarrierObjective,
    PerAntennaBarrierObjective,
    gap_bound,
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
        if not 0 < self.t0 < math.inf:
            raise ValueError(f"t0 must be finite and positive, got {self.t0}")
        if not 1 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and exceed 1, got {self.mu}")
        if not self.t0 <= self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and >= t0, got {self.t_max}")
        if not 0 < self.eps_newton < math.inf:
            raise ValueError(
                f"eps_newton must be finite and positive, got {self.eps_newton}")
        if self.eps_gap is not None and not 0 < self.eps_gap < math.inf:
            raise ValueError(f"eps_gap must be finite and positive, got {self.eps_gap}")
        it = self.max_newton_iter
        if isinstance(it, bool) or not isinstance(it, Integral) or it < 1:
            raise ValueError(f"max_newton_iter must be an integer >= 1, got {it!r}")


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
    """Converged saddle point plus diagnostics; a solve that cannot reach a
    stage's Newton tolerance raises SolverError instead.

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
    gap_met: bool | None
    mode: str
    gap_bound_heuristic: bool = False
    stage_reports: list = field(default_factory=list)  # (t, NewtonReport) pairs

    @property
    def newton_steps_total(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class KktCertificate:
    """Post-hoc stationarity check of a barrier solution of any mode.

    ``stationarity_residual_R`` and ``stationarity_residual_K`` are the
    2-norms of the R block (with the lambda* term) and the K block (empty
    without one) of the stage objective's Newton residual, which carries
    every barrier and power term; at a converged stage both are at most
    ``eps_newton``. The multiplier approximation for the R >= 0 constraint
    is M2 = R^{-1}/t, whose complementarity defect tr(M2 R) is m/t.
    """

    lam: float
    M2_approx: np.ndarray
    stationarity_residual_R: float
    stationarity_residual_K: float
    complementarity_R: float


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
        gap_met=True,
        mode=mode,
    )


def _run_schedule(make_objective, state: SaddleState, cfg: SolverConfig, stages):
    """Warm-started Newton solves at each t of ``stages``.

    ``make_objective(t)`` builds the stage objective. Each accepted step adds
    a trace row with the objective's ``trace_rates`` at the new iterate; a
    SolverError leaving this function carries the rows recorded so far.
    Returns (state, last stage objective, gap_met, trace, stage_reports).
    """
    trace: list[TraceRecord] = []
    reports = []
    for t in stages:
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
            if not report.converged:
                raise SolverError(f"Newton stage at t={t:g} failed: {report.failure}")
        except SolverError as exc:  # a SingularKktError too
            exc.trace = trace
            raise
        reports.append((t, report))
        if cfg.eps_gap is not None and obj.gap() <= cfg.eps_gap:
            break
    gap_met = None if cfg.eps_gap is None else obj.gap() <= cfg.eps_gap
    return state, obj, gap_met, trace, reports


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


def _warm_start(ch: ChannelPair, power: float, warm: SaddleSolution) -> SaddleState:
    """(R*·P/P0, K21*, -lambda*) of the minimax solution ``warm`` at P0."""
    if warm.mode != "minimax":
        raise ValueError(
            f"warm must be a minimax-mode SaddleSolution, got mode {warm.mode!r}")
    rm, k21 = warm.R_star.R, warm.K21_star
    if rm.shape != (ch.m, ch.m) or k21.shape != (ch.n2, ch.n1):
        raise ValueError(
            f"warm has R* {rm.shape} and K21* {k21.shape}, need "
            f"{(ch.m, ch.m)} and {(ch.n2, ch.n1)}")
    scale = power / warm.R_star.power
    return SaddleState(x=vech(rm * scale), y=vec(k21), lam=-float(warm.lambda_star))


def solve(ch: ChannelPair, power: float | PerAntennaBudget,
          cfg: SolverConfig | None = None, mode: str = "auto",
          warm: SaddleSolution | None = None) -> SaddleSolution:
    """Globally optimal transmit covariance via the saddle-point barrier
    method, for a total budget P or a ``PerAntennaBudget``.

    Given P, ``minimax`` solves over (R, K) with tr R = P on any channel and
    short-circuits a reversely degraded one to the exact zero-capacity
    solution; ``degraded`` requires W1 >= W2 and maximizes
    C(R) + (1/t) ln|R| without the noise-covariance block, with gap bound
    m/t; ``auto`` takes the degraded path whenever it applies. A budget
    always solves per-antenna: r_ii <= P_i and an optional total cap act as
    barrier terms with no equality row, and its gap bound is heuristic
    (``PerAntennaBarrierObjective.gap``). The mode only picks the stage
    objective and the start; the last stage objective supplies the gap
    bound, K21*, f and lambda*. A stage that misses its Newton tolerance
    raises SolverError (SingularKktError for an unsolved KKT system) with
    the trace recorded so far.

    ``warm``, a minimax-mode solution of the same channel at a power P0,
    starts a minimax solve from (R*·P/P0, K21*, -lambda*) and runs only the
    stage at ``warm.t_final``, so ``t_final``, ``gap_bound`` and ``gap_met``
    are those of a cold solve with the same config. It pays off when P is
    within a few percent of P0; farther away a cold solve is safer. Raises
    ValueError when ``warm`` is not a minimax-mode solution of this shape,
    or when the solve does not resolve to ``minimax``.
    """
    if cfg is None:
        cfg = SolverConfig()
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    if isinstance(power, PerAntennaBudget):
        mode = "per_antenna"  # the objective checks one cap per antenna
    else:
        if mode == "per_antenna":
            raise ValueError("mode 'per_antenna' needs a PerAntennaBudget")
        if not 0 < power < np.inf:
            raise ValueError(f"power must be finite and positive, got {power}")
        kind, eigs = classify_degraded(ch)
        if mode == "auto":
            mode = "degraded" if kind is Degradedness.DEGRADED else "minimax"
        if mode == "degraded" and kind is not Degradedness.DEGRADED:
            raise ValueError(
                f"solve_degraded requires a degraded channel, got {kind.value} "
                f"(difference eigenvalues {eigs})"
            )
    if warm is not None and mode != "minimax":
        raise ValueError(f"warm starts only a minimax solve, not mode {mode!r}")
    if mode == "per_antenna":
        objective, args = PerAntennaBarrierObjective, (power.caps, power.total)
        start = _per_antenna_start(ch, power)
    elif mode == "degraded":
        objective, args = DegradedBarrierObjective, (power,)
        start = SaddleState(x=vech(np.eye(ch.m) * (power / ch.m)), y=np.zeros(0))
    else:
        objective, args = BarrierObjective, (power,)
        start = _warm_start(ch, power, warm) if warm else initial_point(ch, power)
        if kind is Degradedness.REVERSELY_DEGRADED:
            return _zero_solution(ch, power, mode="zero")

    state, obj, gap_met, trace, reports = _run_schedule(
        lambda t: objective(ch, t, *args), start, cfg,
        _schedule(cfg) if warm is None else (warm.t_final,),
    )

    rm, k21 = obj.unpack(state)
    c_raw = secrecy_rate(ch, rm)
    bound = obj.gap()
    if k21 is None:  # no K block: f is C, and C + gap bounds the capacity
        k21, upper = np.zeros((ch.n2, ch.n1)), c_raw + bound
    else:
        upper = minimax_objective(ch, rm, k21)
    if obj.constraint is None:  # power barrier rows: no multiplier, budget tr R*
        lam, budget = None, float(np.trace(rm))
    else:
        lam, budget = -state.lam, obj.constraint[1]
    return SaddleSolution(
        R_star=TransmitCovariance(rm, budget),
        K21_star=k21,
        lambda_star=lam,
        capacity_upper=upper,
        capacity_achievable=max(0.0, c_raw),
        gap_bound=bound,
        trace=trace,
        t_final=obj.t,
        gap_met=gap_met,
        mode=mode,
        gap_bound_heuristic=obj.gap_heuristic,
        stage_reports=reports,
    )


def solve_minimax(ch: ChannelPair, power: float, cfg: SolverConfig | None = None,
                  warm: SaddleSolution | None = None) -> SaddleSolution:
    """``solve`` in ``minimax`` mode: works for any channel; ``warm`` as in
    ``solve``."""
    return solve(ch, power, cfg, mode="minimax", warm=warm)


def solve_degraded(ch: ChannelPair, power: float,
                   cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` in ``degraded`` mode: requires W1 >= W2."""
    return solve(ch, power, cfg, mode="degraded")


def extract_certificate(sol: SaddleSolution,
                        obj: BarrierObjective) -> KktCertificate:
    """The R and K blocks of ``kkt_newton.residual`` at (R*, K21*, -lambda*)
    of ``sol``; ``obj`` must be the stage objective of the solve's mode at
    ``sol.t_final``. All quantities are in the solver's log-det convention."""
    lam = 0.0 if sol.lambda_star is None else float(sol.lambda_star)
    y = vec(sol.K21_star) if obj.ny else np.zeros(0)
    state = SaddleState(x=vech(sol.R_star.R), y=y, lam=-lam)
    r, nx = residual(obj, state), obj.nx
    return KktCertificate(
        lam=lam,
        M2_approx=obj.factors(state).Rinv / obj.t,
        stationarity_residual_R=float(np.linalg.norm(r[:nx])),
        stationarity_residual_K=float(np.linalg.norm(r[nx:nx + obj.ny])),
        complementarity_R=obj.channel.m / obj.t,
    )
