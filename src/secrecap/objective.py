"""Objective evaluations and exact derivatives in reduced coordinates.

Two value conventions coexist deliberately:

  * ``secrecy_rate`` and ``minimax_objective`` report rates in nats and carry
    the 1/2 factor of the log-det rate formulas.
  * everything the Newton solver touches (``barrier_value``, ``derivatives``
    and the objective classes below) works on plain log-det differences with
    NO 1/2 factor, so the gradient/Hessian expressions stay in their simplest
    form. Rates reported by the outer solver multiply by 0.5 at the end.

Coordinates: x = vech(R) with R the m x m transmit covariance, y = vec(K21)
with K21 the n2 x n1 cross block of the noise covariance.

``BarrierObjective`` is the one barrier objective of every solve path, with
two axes: a K block or none (the degraded path), and the power limit as the
equality row tr R = P or as per-antenna barrier rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelPair, NoiseCovariance, SaddleState, TransmitCovariance
from .errors import DomainError
from .matcalc import (
    chol,
    chol_inv,
    chol_logdet,
    chol_solve,
    kron,
    noise_matrix,
    psd_sqrt,
    sandwich_indices,
    sym,
    unvech,
    vec,
    vech,
    vech_diag_indices,
    vech_len,
)

__all__ = [
    "BarrierObjective",
    "DegradedBarrierObjective",
    "PerAntennaBarrierObjective",
    "DerivativeBundle",
    "secrecy_rate",
    "minimax_objective",
    "barrier_value",
    "derivatives",
    "gap_bound",
]


def gap_bound(m: int, n1: int, n2: int, t: float) -> float:
    """Capacity accuracy guarantee of the barrier solution at parameter t;
    without a K block n1 = n2 = 0, which gives m/t."""
    if t <= 0:
        raise ValueError("barrier parameter t must be positive")
    return max(m, n1 + n2) / t


def _as_matrix(r) -> np.ndarray:
    if isinstance(r, TransmitCovariance):
        return r.R
    return sym(np.atleast_2d(np.asarray(r, dtype=float)))


def _as_k21(k, ch: ChannelPair) -> np.ndarray:
    if isinstance(k, NoiseCovariance):
        return k.K21
    k = np.atleast_2d(np.asarray(k, dtype=float))
    if k.shape != (ch.n2, ch.n1):
        raise ValueError(f"K21 block must have shape {(ch.n2, ch.n1)}, got {k.shape}")
    return k


def _logdet_capacity_term(h: np.ndarray, r: np.ndarray) -> float:
    """ln |I + H' H R| computed as ln |I + H R H'| via Cholesky."""
    n = h.shape[0]
    a = np.eye(n) + h @ r @ h.T
    return chol_logdet(chol(sym(a), "capacity log-det argument"))


def secrecy_rate(ch: ChannelPair, r) -> float:
    """Achievable secrecy rate C(R) in nats (may be negative; callers clamp
    negative values to zero when reporting capacity)."""
    rm = _as_matrix(r)
    return 0.5 * (_logdet_capacity_term(ch.H1, rm) - _logdet_capacity_term(ch.H2, rm))


def minimax_objective(ch: ChannelPair, r, k) -> float:
    """Genie upper-bound functional f(R, K) in nats; f(R, K) >= C(R) for all
    feasible K. ``k`` may be a NoiseCovariance or the raw K21 block."""
    rm = _as_matrix(r)
    k21 = _as_k21(k, ch)
    kf = noise_matrix(k21)
    q = sym(ch.Hstack @ rm @ ch.Hstack.T)
    ld_kq = chol_logdet(chol(kf + q, "K + Q"))
    ld_k = chol_logdet(chol(kf, "noise covariance"))
    ld_2 = _logdet_capacity_term(ch.H2, rm)
    return 0.5 * (ld_kq - ld_k - ld_2)


@dataclass
class DerivativeBundle:
    """Gradients and Hessians of the barrier objective at one interior point.

    Values are log-det differences without the 1/2 rate factor (value_C is
    twice the rate returned by :func:`secrecy_rate`, and so on). hess_xx is
    negative definite and hess_yy positive definite at every interior point.
    """

    grad_x: np.ndarray
    grad_y: np.ndarray
    hess_xx: np.ndarray
    hess_yy: np.ndarray
    hess_xy: np.ndarray
    value_f: float
    value_ft: float
    value_C: float


class _Factors:
    """Per-point matrix factors of a barrier objective: the R side always,
    the K side only with a K block (otherwise Z1 comes from the channel's
    W1^{1/2}), and the power slacks only with per-antenna caps. Log-dets are
    taken from the Cholesky factors ``cf_*`` only when a value needs them."""

    __slots__ = (
        "R", "K21", "K", "Q", "Rinv", "Kinv", "G", "B", "W", "Z1", "Z2",
        "cf_R", "cf_K", "cf_KQ", "cf_1", "cf_2", "slack", "tslack",
    )

    def __init__(self, obj: "BarrierObjective", rm: np.ndarray, k21: np.ndarray | None):
        ch = obj.channel
        self.slack = self.tslack = None
        if obj.caps is not None:
            self.slack = obj.caps - np.diag(rm)
            if np.any(self.slack <= 0):
                raise DomainError("per-antenna power cap violated")
            if obj.total is not None:
                self.tslack = obj.total - float(np.trace(rm))
                if self.tslack <= 0:
                    raise DomainError("total power cap violated")
        self.R = rm
        self.K21 = k21
        self.cf_R = chol(rm, "transmit covariance")
        self.Rinv = chol_inv(self.cf_R)

        if k21 is None:
            self.Z1, self.cf_1 = _z_matrix(ch.sqrt_W1, rm)
        else:
            self.K = noise_matrix(k21)
            self.cf_K = chol(self.K, "noise covariance")
            self.Kinv = chol_inv(self.cf_K)

            self.Q = sym(ch.Hstack @ rm @ ch.Hstack.T)
            self.cf_KQ = chol(self.K + self.Q, "K + Q")
            self.G = chol_inv(self.cf_KQ)
            self.B = ch.Hstack.T @ self.G

            self.W = sym(ch.Hstack.T @ (self.Kinv @ ch.Hstack))
            self.Z1, _ = _z_matrix(psd_sqrt(self.W), rm)
        self.Z2, self.cf_2 = _z_matrix(ch.sqrt_W2, rm)

    def logdet_K(self) -> float:
        """ln|K|; 0 without a K block, which has no -(1/t) ln|K| term."""
        return 0.0 if self.K21 is None else chol_logdet(self.cf_K)

    def value_f(self) -> float:
        """f without the 1/2 factor; without a K block f is C."""
        if self.K21 is None:
            return chol_logdet(self.cf_1) - chol_logdet(self.cf_2)
        return chol_logdet(self.cf_KQ) - self.logdet_K() - chol_logdet(self.cf_2)


def _hxx(ix, z1, z2, rinv, tinv: float) -> np.ndarray:
    """-D'(Z1 (x) Z1 - Z2 (x) Z2 + (1/t) R^{-1} (x) R^{-1}) D, bit for bit, by
    one gather over the stacked factors."""
    g = np.concatenate((z1, z2, rinv)).ravel()[ix.xx]
    p1, p2, pr = g[0] * g[1]
    terms = p1 - p2 + tinv * pr  # the sandwiched matrix at the X and Y entries
    return -(ix.xx_weight * (terms[0] + terms[1]))


def _gradient(ix, *grads: np.ndarray) -> np.ndarray:
    """(D' vec(grad_R), Dt' vec(grad_K)) of exactly symmetric gradient
    matrices, bit for bit (``matcalc.sandwich_indices``)."""
    return ix.grad_weight * np.concatenate([a.ravel() for a in grads])[ix.grad]


def _z_matrix(s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = (I + W R)^{-1} W through the symmetric form S (I + S R S)^{-1} S
    with S = W^{1/2}; always symmetric and valid for singular W. Also returns
    the Cholesky factor of I + S R S, whose log-det is ln|I + W R|."""
    m = s.shape[0]
    cf = chol(np.eye(m) + sym(s @ r @ s), "I + S R S")
    return sym(s @ chol_solve(cf, s)), cf


class BarrierObjective:
    """Barrier-augmented saddle objective

        f_t(R, K) = f(R, K) + (1/t) ln|R| - (1/t) ln|K|

    maximized over x = vech(R) subject to tr R = P and minimized over
    y = vec(K21). Provides values, gradients and the full indefinite Hessian
    for the primal-dual Newton solver, and the gap bound of a stage solution.

    Two axes, which the subclasses set: without the K block (degraded) f is
    C(R) = ln|I + W1 R| - ln|I + W2 R| and there is no y; with per-antenna
    ``caps`` the barrier rows (1/t) sum_i ln(P_i - r_ii) [+ (1/t) ln(P_tot -
    tr R)] replace the equality row tr R = P.
    """

    _k_block = True
    caps = None   # per-antenna caps P_i; None with the equality row tr R = P
    total = None  # optional total cap beside the per-antenna ones
    gap_heuristic = False  # True when gap() is not a proven bound

    def __init__(self, ch: ChannelPair, t: float, power: float):
        self._setup(ch, t, power=power)
        self.power = float(power)
        a = np.zeros(self.nx + self.ny)
        a[: self.nx] = vech(np.eye(ch.m))
        self.constraint = (a, self.power)

    def _setup(self, ch: ChannelPair, t: float, **limits) -> None:
        """Checks t and the power limits, and sets the dimensions."""
        for name, value in (("t", t), *limits.items()):
            if value is not None and not np.all(np.isfinite(value) & (value > 0)):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        self.channel = ch
        self.t = float(t)
        self.n1, self.n2 = (ch.n1, ch.n2) if self._k_block else (0, 0)
        self.nx = vech_len(ch.m)
        self.ny = self.n1 * self.n2
        self._ix = sandwich_indices(ch.m, self.n1, self.n2)
        # Factors of the last point evaluated. The Newton solver evaluates the
        # accepted line-search trial again in assemble() and in the trace row,
        # so those reuse this slot. Per-stage objectives are never shared
        # between threads.
        self._last_state = None
        self._last_factors = None

    def gap(self) -> float:
        """Capacity gap bound of a solution of this stage."""
        return gap_bound(self.channel.m, self.n1, self.n2, self.t)

    # -- state unpacking ---------------------------------------------------

    def unpack(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray | None]:
        """(R, K21) at ``state``; K21 is None without a K block."""
        rm = unvech(state.x)
        if not self.ny:
            return rm, None
        return rm, state.y.reshape((self.channel.n2, self.channel.n1), order="F")

    def factors(self, state: SaddleState) -> _Factors:
        """Factors at ``state``, built once per SaddleState object."""
        if state is not self._last_state:
            self._last_factors = _Factors(self, *self.unpack(state))
            self._last_state = state
        return self._last_factors

    def trace_rates(self, state: SaddleState) -> tuple[float, float]:
        """(f, C) in nats at ``state`` for the convergence trace, equal bit for
        bit to :func:`minimax_objective` and :func:`secrecy_rate` there:
        ln|K + Q| and ln|K| come from the factors, and ln|I + H2 R H2'| is
        shared by f and C. Without a K block f is C."""
        ch, fac = self.channel, self.factors(state)
        ld_2 = _logdet_capacity_term(ch.H2, fac.R)
        c = 0.5 * (_logdet_capacity_term(ch.H1, fac.R) - ld_2)
        if not self.ny:
            return c, c
        return 0.5 * (chol_logdet(fac.cf_KQ) - fac.logdet_K() - ld_2), c

    # -- values ------------------------------------------------------------

    def value_ft(self, state: SaddleState) -> float:
        fac, t = self.factors(state), self.t
        v = fac.value_f() + (chol_logdet(fac.cf_R) - fac.logdet_K()) / t
        if fac.slack is not None:
            v += float(np.sum(np.log(fac.slack))) / t
        if fac.tslack is not None:
            v += np.log(fac.tslack) / t
        return v

    # -- Newton interface ----------------------------------------------------

    def newton_gradient(self, state: SaddleState) -> np.ndarray:
        return self._gradient_from(self.factors(state))

    def newton_system(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        fac = self.factors(state)
        return self._gradient_from(fac), self._hessian_from(fac)

    def _gradient_from(self, fac: _Factors) -> np.ndarray:
        tinv = 1.0 / self.t
        grads = [fac.Z1 - fac.Z2 + tinv * fac.Rinv]
        if self.ny:
            grads.append(fac.G - (1.0 + tinv) * fac.Kinv)
        g = _gradient(self._ix, *grads)
        if fac.slack is not None:
            g[self._diag_idx] -= 1.0 / (self.t * fac.slack)
        if fac.tslack is not None:
            g[self._diag_idx] -= 1.0 / (self.t * fac.tslack)
        return g

    def _hessian_from(self, fac: _Factors) -> np.ndarray:
        ix, n1, nx, ny = self._ix, self.channel.n1, self.nx, self.ny
        tinv = 1.0 / self.t
        h = _hxx(ix, fac.Z1, fac.Z2, fac.Rinv, tinv)
        if ny:
            f = fac.B.ravel()[ix.xy]
            p = f[0] * f[1]
            hxy = -(ix.xy_weight * (p[0] + p[1]))
            # Dt'((1 + 1/t) K^{-1} (x) K^{-1} - G (x) G) Dt from the n1 / n2 blocks
            ck, k, g = 1.0 + tinv, fac.Kinv, fac.G
            same = ck * kron(k[:n1, :n1], k[n1:, n1:]) - kron(g[:n1, :n1], g[n1:, n1:])
            cross = ck * kron(k[:n1, n1:], k[n1:, :n1]) - kron(g[:n1, n1:], g[n1:, :n1])
            hxx, h = h, np.empty((nx + ny, nx + ny))
            h[:nx, :nx] = hxx
            h[:nx, nx:] = hxy
            h[nx:, :nx] = hxy.T
            h[nx:, nx:] = 2.0 * (same + cross[:, ix.k21_transpose])
        if fac.slack is not None:
            d = self._diag_idx
            h[d, d] -= 1.0 / (self.t * fac.slack**2)
            if fac.tslack is not None:
                h[np.ix_(d, d)] -= 1.0 / (self.t * fac.tslack**2)
        return h


def _point(obj: BarrierObjective, r, k) -> SaddleState:
    return SaddleState(x=vech(_as_matrix(r)), y=vec(_as_k21(k, obj.channel)), lam=0.0)


def barrier_value(obj: BarrierObjective, r, k) -> float:
    """f_t at (R, K) in the solver's log-det convention (no 1/2 factor)."""
    return obj.value_ft(_point(obj, r, k))


def derivatives(obj: BarrierObjective, r, k) -> DerivativeBundle:
    """Exact gradients and Hessians of f_t at an interior point (R, K)."""
    state = _point(obj, r, k)
    g, h = obj.newton_system(state)
    fac, nx = obj.factors(state), obj.nx
    return DerivativeBundle(
        grad_x=g[:nx],
        grad_y=g[nx:],
        hess_xx=h[:nx, :nx],
        hess_yy=h[nx:, nx:],
        hess_xy=h[:nx, nx:],
        value_f=fac.value_f(),
        value_ft=obj.value_ft(state),
        value_C=2.0 * secrecy_rate(obj.channel, fac.R),
    )


class DegradedBarrierObjective(BarrierObjective):
    """The barrier objective without a K block, for the degraded fast path:
    maximize

        f_t(R) = ln|I + W1 R| - ln|I + W2 R| + (1/t) ln|R|

    over x = vech(R) with tr R = P."""

    _k_block = False


class PerAntennaBarrierObjective(BarrierObjective):
    """The minimax barrier objective with per-antenna power barriers

        + (1/t) sum_i ln(P_i - r_ii)   [+ (1/t) ln(P_tot - tr R) if capped]

    and no equality constraint row: all power limits act through barriers,
    so the Newton system has no multiplier block.

    Its gap bound (m + #power barriers + n1 + n2)/t counts every barrier
    term and is heuristic: the extension inherits convergence but not the
    exact constant of the total-power analysis.
    """

    gap_heuristic = True

    def __init__(self, ch: ChannelPair, t: float, caps: np.ndarray,
                 total: float | None = None):
        caps = np.asarray(caps, dtype=float).ravel()
        if caps.size != ch.m:
            raise ValueError(f"need {ch.m} per-antenna caps, got {caps.size}")
        self._setup(ch, t, caps=caps, total=total)
        self.caps = caps
        self.total = None if total is None else float(total)
        self.constraint = None
        self._diag_idx = vech_diag_indices(ch.m)

    def gap(self) -> float:
        m = self.channel.m
        power_terms = m + (0 if self.total is None else 1)
        return (m + power_terms + self.n1 + self.n2) / self.t
