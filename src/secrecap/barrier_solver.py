"""Outer barrier loop with gap-bound stopping and the purification of a
barrier point's covariance.

The schedule solves the barrier-augmented saddle system at t = t0, mu*t0,
mu^2*t0, ... (capped at t_max). Each stage after the first starts from the
first-order prediction of its central point along the central path's
tangent at the previous stage's central point w (``kkt_newton.predict``,
Boyd & Vandenberghe, Convex Optimization, §11.3-11.4), or from w itself
where the prediction is rejected; a stage that fails from a predicted start
is solved once more from w. Stops early once the stage objective's gap
bound drops below ``eps_gap`` when that tolerance is set; otherwise the full
schedule runs to t_max, mirroring the usual experiment protocol.

Every solve, the dual's bordered one too, runs this schedule in
``_solve_together``: one channel as one iterate, a list of them as one stack
of iterates in lockstep.

Reported capacities carry the 1/2 rate factor (nats); the dual variable
lives in the solver's log-det convention.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from .kkt_newton import newton_solve
from .matcalc import unvech, vech, vech_len
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
    "gap_bound",
    "PerAntennaBudget",
    "solve",
    "solve_minimax",
    "solve_degraded",
    "purify",
]


@dataclass(frozen=True)
class SolverConfig:
    """Barrier-schedule and tolerance knobs. The Newton line search has no
    knobs: it backtracks by the constants of ``kkt_newton``.

    ``eps_gap=None`` disables gap-driven early stopping, so the schedule
    runs all the way to ``t_max``.
    """

    t0: float = 100.0
    mu: float = 10.0
    t_max: float = 1e5
    eps_gap: float | None = None
    eps_newton: float = 1e-10
    max_newton_iter: int = 200

    def __post_init__(self):
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


class TraceRecord:
    """One accepted Newton step: barrier parameter, per-stage step index,
    residual norm after the step, the rates f and C (nats) at the accepted
    iterate and the accepted step size.

    The row keeps the iterate as its own copy of the coordinates
    z = (vech(R), vec(K21)) and its ``channel``, and evaluates f
    (:func:`minimax_objective`; without a K block f is C) and C
    (:func:`secrecy_rate`) there on first read, then keeps them: a solve
    whose trace nobody reads pays nothing for its rates. Equality, ``repr``
    and ``as_dict`` are over t, iteration, residual, f, C and step_size.
    """

    __slots__ = ("t", "iteration", "residual", "step_size", "channel", "z", "_f", "_C")

    def __init__(self, t: float, iteration: int, residual: float, step_size: float,
                 channel: ChannelPair, z: np.ndarray):
        self.t, self.iteration, self.residual, self.step_size = (
            t, iteration, residual, step_size)
        self.channel, self.z = channel, z
        self._f = self._C = None

    def _r(self) -> np.ndarray:
        return unvech(self.z[:vech_len(self.channel.m)])

    @property
    def C(self) -> float:
        if self._C is None:
            self._C = secrecy_rate(self.channel, self._r())
        return self._C

    @property
    def f(self) -> float:
        if self._f is None:
            ch, nx = self.channel, vech_len(self.channel.m)
            if self.z.size == nx:  # no K block
                self._f = self.C
            else:  # y = vec(K21) is column-major
                k21 = self.z[nx:].reshape((ch.n2, ch.n1), order="F")
                self._f = minimax_objective(ch, self._r(), k21)
        return self._f

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "iter": self.iteration,
            "residual": self.residual,
            "f": self.f,
            "C": self.C,
            "step_size": self.step_size,
        }

    def __eq__(self, other) -> bool:
        if type(other) is not TraceRecord:
            return NotImplemented
        return tuple(self.as_dict().values()) == tuple(other.as_dict().values())

    def __repr__(self) -> str:
        return (f"TraceRecord(t={self.t!r}, iteration={self.iteration!r}, "
                f"residual={self.residual!r}, f={self.f!r}, C={self.C!r}, "
                f"step_size={self.step_size!r})")


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


def _zero_solution(ch: ChannelPair, power: float,
                   cfg: SolverConfig) -> SaddleSolution:
    """R* = 0 of a reversely degraded channel, whose capacity is zero."""
    return SaddleSolution(
        R_star=TransmitCovariance(np.zeros((ch.m, ch.m)), power),
        K21_star=np.zeros((ch.n2, ch.n1)),
        lambda_star=0.0,
        capacity_upper=0.0,
        capacity_achievable=0.0,
        gap_bound=0.0,
        trace=[],
        t_final=math.inf,
        gap_met=None if cfg.eps_gap is None else True,
        mode="zero",
    )


def _rows(state: SaddleState) -> list:
    """The channel of each row of a stack, [0] for one iterate."""
    if state.x.ndim == 1:
        return [0]
    return list(range(len(state.x))) if state.rows is None else state.rows.tolist()


@dataclass
class PerAntennaBudget:
    """Per-antenna power caps P_i, optionally combined with a total cap.

    A total cap at or above sum(P_i) is vacuous; it is dropped (``total``
    becomes None).
    """

    caps: np.ndarray
    total: float | None = None

    def __post_init__(self):
        self.caps = np.asarray(self.caps, dtype=float).ravel()
        if self.caps.size == 0 or not np.all((self.caps > 0) & (self.caps < np.inf)):
            raise ValueError(f"caps must be finite and positive, got {self.caps}")
        if self.total is not None:
            if not 0 < self.total < np.inf:
                raise ValueError(f"total must be finite and positive, got {self.total}")
            if self.total >= float(np.sum(self.caps)):
                self.total = None


def _per_antenna_start(ch: ChannelPair, budget: PerAntennaBudget) -> SaddleState:
    caps = budget.caps
    scale = 0.5
    if budget.total is not None:
        scale = min(0.5, 0.5 * budget.total / float(np.sum(caps)))
    r0 = np.diag(caps * scale)
    return SaddleState(x=vech(r0), y=np.zeros(ch.n1 * ch.n2), lam=0.0)


SOLVE_MODES = ("auto", "minimax", "degraded", "per_antenna")


def solve(ch: ChannelPair | Sequence[ChannelPair], power: float | PerAntennaBudget,
          cfg: SolverConfig | None = None, mode: str = "auto"):
    """Globally optimal transmit covariance via the saddle-point barrier
    method, for a total budget P or a ``PerAntennaBudget``.

    Given P, ``minimax`` solves over (R, K) with tr R = P on any channel and
    short-circuits a reversely degraded one to the exact zero-capacity
    solution; ``degraded`` requires W1 >= W2 and maximizes
    C(R) + (1/t) ln|R| without the noise-covariance block, with gap bound
    m/t; ``auto`` takes the degraded path whenever it applies. A budget
    always solves per-antenna: r_ii <= P_i and an optional total cap act as
    barrier terms with no equality row, and its gap bound is heuristic
    (``BarrierObjective.gap``). The mode only picks the stage
    objective and the start; the last stage objective supplies the gap
    bound, K21*, f and lambda*. A stage that misses its Newton tolerance
    raises SolverError (SingularKktError for an unsolved KKT system) with
    the trace recorded so far.

    In ``minimax`` mode with a total budget P, ``ch`` may also be a
    sequence of channels of one shape. They then iterate in lockstep, one
    stack of Newton systems per round (``kkt_newton.newton_solve``), and
    the result is a list with each channel's SaddleSolution, or the
    SolverError its solve would raise, bit for bit what the channel gives
    alone. Input errors (ValueError) still raise for the whole call.
    """
    if cfg is None:
        cfg = SolverConfig()
    if mode not in SOLVE_MODES:
        raise ValueError(f"mode must be one of {SOLVE_MODES}, got {mode!r}")
    budget = isinstance(power, PerAntennaBudget)
    if not budget:
        if mode == "per_antenna":
            raise ValueError("mode 'per_antenna' needs a PerAntennaBudget")
        if not 0 < power < np.inf:
            raise ValueError(f"power must be finite and positive, got {power}")
    one = isinstance(ch, ChannelPair)
    if not one and (mode != "minimax" or budget):
        raise ValueError("a sequence of channels solves only in minimax mode, "
                         "with a total power")
    if budget:
        mode = "per_antenna"  # the objective checks one cap per antenna
        objective, args = PerAntennaBarrierObjective, (power.caps, power.total)
    else:
        objective, args = BarrierObjective, (power,)
    channels = [ch] if one else list(ch)
    results, starts = [None] * len(channels), {}
    for i, c in enumerate(channels):
        if budget:
            starts[i] = _per_antenna_start(c, power)
            continue
        kind, eigs = classify_degraded(c)
        if mode == "auto":  # one channel only
            mode = "degraded" if kind is Degradedness.DEGRADED else "minimax"
        if mode == "degraded":
            if kind is not Degradedness.DEGRADED:
                raise ValueError(
                    f"solve_degraded requires a degraded channel, got {kind.value} "
                    f"(difference eigenvalues {eigs})"
                )
            objective = DegradedBarrierObjective
            starts[i] = SaddleState(x=vech(np.eye(c.m) * (power / c.m)), y=np.zeros(0))
        elif kind is Degradedness.REVERSELY_DEGRADED:
            results[i] = _zero_solution(c, power, cfg)
        else:
            starts[i] = initial_point(c, power)
    if starts:
        solved = _solve_together(objective, args, [channels[i] for i in starts],
                                 list(starts.values()), mode, cfg)
        for i, result in zip(starts, solved):
            results[i] = result
    if one and isinstance(results[0], SolverError):
        raise results[0]
    return results[0] if one else results


def _solve_together(objective, args: tuple, channels: list, starts: list, mode: str,
                    cfg: SolverConfig) -> list:
    """The barrier schedule of ``objective`` over ``channels`` from
    ``starts`` in lockstep (one channel iterates without a leading axis):
    each channel's SaddleSolution or SolverError.

    Each accepted step adds a trace row to its channel, which keeps a copy
    of the new iterate and evaluates its rates when read. A channel whose
    stage misses its Newton tolerance leaves the schedule with a SolverError
    (the SingularKktError that ``newton_solve`` returns for an unsolved KKT
    system) that carries the rows recorded so far; the other channels go on.
    """
    one = len(channels) == 1
    traces = [[] for _ in channels]
    reports = [[] for _ in channels]
    errors = [None] * len(channels)
    state = starts[0] if one else SaddleState.stack(starts)
    t, previous = cfg.t0, None
    while True:
        obj = objective(channels[0] if one else channels, t, *args)

        def record(k, st, rnorm, s, t=t):
            # each row copies its own z: a row of the stack would keep all of it
            for row, z, rn, si in zip(_rows(st), np.atleast_2d(st.z), rnorm, s):
                traces[row].append(TraceRecord(t, k, rn, si, channels[row], z.copy()))

        state, *stage = newton_solve(obj, state, eps=cfg.eps_newton,
                                     max_iter=cfg.max_newton_iter, callback=record,
                                     previous=previous)
        previous = obj
        failed = []
        for i, (row, report, exc) in enumerate(zip(_rows(state), *stage)):
            if exc is None and not report.converged:
                exc = SolverError(f"Newton stage at t={t:g} failed: {report.failure}")
            if exc is None:
                reports[row].append((t, report))
            else:
                exc.trace = traces[row]
                errors[row] = exc
                failed.append(i)
        gap_met = None if cfg.eps_gap is None else obj.gap() <= cfg.eps_gap
        # the rows of failed channels stay in the last state, unread
        if len(failed) == len(stage[0]) or gap_met or t >= cfg.t_max * (1.0 - 1e-12):
            break
        if failed:
            state = state.take(np.delete(np.arange(len(state.x)), failed))
        t = min(t * cfg.mu, cfg.t_max)
    # one iterate as a stack of one; row j of the stack is channel _rows(state)[j]
    rm, k21 = obj.unpack(SaddleState(np.atleast_2d(state.x), np.atleast_2d(state.y)))
    lam = np.atleast_1d(state.lam)
    results = list(errors)
    for j, i in enumerate(_rows(state)):
        if errors[i] is None:
            results[i] = _solution(obj, channels[i], rm[j],
                                   None if k21 is None else k21[j], lam[j], mode,
                                   gap_met, traces[i], reports[i])
    return results


def _solution(obj: BarrierObjective, ch: ChannelPair, rm: np.ndarray, k21, lam,
              mode: str, gap_met, trace: list, reports: list) -> SaddleSolution:
    """The SaddleSolution of a channel's last stage point (R, K21, lam); K21
    is None without a K block."""
    c_raw = secrecy_rate(ch, rm)
    bound = obj.gap()
    if k21 is None:  # no K block: f is C, and C + gap bounds the capacity
        k21, upper = np.zeros((ch.n2, ch.n1)), c_raw + bound
    else:
        upper = minimax_objective(ch, rm, k21)
    # barrier rows have no multiplier; a free power (per-antenna, rate) is tr R*
    lam = None if obj.constraint is None else -float(lam)
    budget = float(np.trace(rm)) if obj.power is None else obj.power
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


def purify(ch: ChannelPair, R: np.ndarray, K21: np.ndarray) -> np.ndarray:
    """The covariance of best C among R, its eigenvalue drops and its
    projections onto the null space of the top r right singular vectors of
    H2 - K21·H1, each rescaled to tr R. A barrier point keeps eigenvalues
    of order 1/t in directions that the saddle point leaves empty, where C
    can lose much more than the gap bound; the candidates drop them."""
    power = np.trace(R)
    w, v = np.linalg.eigh(R)
    _, _, vh = np.linalg.svd(ch.H2 - K21 @ ch.H1)
    drops = [v[:, k:] * w[k:] @ v[:, k:].T for k in range(1, ch.m)]
    nulls = [vh[r:].T @ vh[r:] for r in range(1, min(ch.n2, ch.m - 1) + 1)]
    candidates = [R, *drops, *(p @ R @ p for p in nulls)]
    # a candidate with less than 1e-8 of the power is rounding noise of R
    return max((c * (power / np.trace(c)) for c in candidates
                if np.trace(c) > 1e-8 * power), key=lambda c: secrecy_rate(ch, c))


def solve_minimax(ch: ChannelPair | Sequence[ChannelPair], power: float,
                  cfg: SolverConfig | None = None):
    """``solve`` in ``minimax`` mode: works for any channel, and for a list
    of same-shape channels in lockstep."""
    return solve(ch, power, cfg, mode="minimax")


def solve_degraded(ch: ChannelPair, power: float,
                   cfg: SolverConfig | None = None) -> SaddleSolution:
    """``solve`` in ``degraded`` mode: requires W1 >= W2."""
    return solve(ch, power, cfg, mode="degraded")
