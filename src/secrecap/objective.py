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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .channel import ChannelPair, NoiseCovariance, SaddleState, TransmitCovariance
from .errors import DomainError
from .matcalc import (
    kron,
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
]


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


# The LAPACK routines behind scipy's cho_factor/cho_solve, fetched once and
# called without the per-call wrapper overhead (same routines, same bits).
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _chol(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix (upper triangle left
    unreferenced) or DomainError."""
    c, info = _potrf(a, lower=1, clean=0)
    if info > 0:
        raise DomainError(f"{what} is not strictly positive definite")
    return c


def _chol_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _potrs(c, b, lower=1)[0]


def _chol_logdet(c: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def _chol_inv(c: np.ndarray, n: int) -> np.ndarray:
    return sym(_chol_solve(c, np.eye(n)))


def _assemble_K(k21: np.ndarray, n1: int, n2: int) -> np.ndarray:
    k = np.eye(n1 + n2)
    k[n1:, :n1] = k21
    k[:n1, n1:] = k21.T
    return k


def _logdet_capacity_term(h: np.ndarray, r: np.ndarray) -> float:
    """ln |I + H' H R| computed as ln |I + H R H'| via Cholesky."""
    n = h.shape[0]
    a = np.eye(n) + h @ r @ h.T
    return _chol_logdet(_chol(sym(a), "capacity log-det argument"))


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
    kf = _assemble_K(k21, ch.n1, ch.n2)
    q = sym(ch.Hstack @ rm @ ch.Hstack.T)
    ld_kq = _chol_logdet(_chol(kf + q, "K + Q"))
    ld_k = _chol_logdet(_chol(kf, "noise covariance"))
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
    """Shared per-point matrix factors for the minimax barrier objective."""

    __slots__ = (
        "R", "K21", "K", "Q", "Rinv", "Kinv", "G", "B", "W", "Z1", "Z2",
        "logdet_R", "logdet_K", "logdet_KQ", "logdet_2",
    )

    def __init__(self, ch: ChannelPair, rm: np.ndarray, k21: np.ndarray):
        m, n1, n2 = ch.m, ch.n1, ch.n2
        n = n1 + n2
        self.R = rm
        self.K21 = k21
        cf_r = _chol(rm, "transmit covariance")
        self.logdet_R = _chol_logdet(cf_r)
        self.Rinv = _chol_inv(cf_r, m)

        self.K = _assemble_K(k21, n1, n2)
        cf_k = _chol(self.K, "noise covariance")
        self.logdet_K = _chol_logdet(cf_k)
        self.Kinv = _chol_inv(cf_k, n)

        self.Q = sym(ch.Hstack @ rm @ ch.Hstack.T)
        cf_kq = _chol(self.K + self.Q, "K + Q")
        self.logdet_KQ = _chol_logdet(cf_kq)
        self.G = _chol_inv(cf_kq, n)
        self.B = ch.Hstack.T @ self.G

        self.W = sym(ch.Hstack.T @ (self.Kinv @ ch.Hstack))
        self.Z1, _ = _z_matrix(psd_sqrt(self.W), rm)
        self.Z2, cf_2 = _z_matrix(ch.sqrt_W2, rm)
        self.logdet_2 = _chol_logdet(cf_2)

    def value_f(self) -> float:
        return self.logdet_KQ - self.logdet_K - self.logdet_2


def _hxx(ix, z1, z2, rinv, r_term) -> np.ndarray:
    """-D'(Z1 (x) Z1 - Z2 (x) Z2 + r_term(R^{-1} (x) R^{-1})) D, bit for bit, by one
    gather over the stacked factors; r_term rounds 1/t the way the caller does."""
    g = np.concatenate((z1, z2, rinv)).ravel()[ix.xx]
    p1, p2, pr = g[0] * g[1]
    terms = p1 - p2 + r_term(pr)  # the sandwiched matrix at the X and Y entries
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
    cf = _chol(np.eye(m) + sym(s @ r @ s), "I + S R S")
    return sym(s @ _chol_solve(cf, s)), cf


class BarrierObjective:
    """Barrier-augmented saddle objective

        f_t(R, K) = f(R, K) + (1/t) ln|R| - (1/t) ln|K|

    maximized over x = vech(R) subject to tr R = P and minimized over
    y = vec(K21). Provides values, gradients and the full indefinite Hessian
    for the primal-dual Newton solver.
    """

    def __init__(self, ch: ChannelPair, t: float, power: float):
        if t <= 0:
            raise ValueError("barrier parameter t must be positive")
        if power <= 0:
            raise ValueError("power budget must be positive")
        self.channel = ch
        self.t = float(t)
        self.power = float(power)
        self.nx = vech_len(ch.m)
        self.ny = ch.n1 * ch.n2
        self._ix = sandwich_indices(ch.m, ch.n1, ch.n2)
        a = np.zeros(self.nx + self.ny)
        a[: self.nx] = vech(np.eye(ch.m))
        self.constraint = (a, self.power)
        # Factors of the last point evaluated. The Newton solver evaluates the
        # accepted line-search trial again in assemble() and in the trace row,
        # so those reuse this slot. Per-stage objectives are never shared
        # between threads.
        self._last_state = None
        self._last_factors = None

    # -- state unpacking ---------------------------------------------------

    def unpack(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        rm = unvech(state.x)
        k21 = state.y.reshape((self.channel.n2, self.channel.n1), order="F")
        return rm, k21

    def factors(self, state: SaddleState) -> _Factors:
        """Factors at ``state``, built once per SaddleState object."""
        if state is not self._last_state:
            rm, k21 = self.unpack(state)
            self._last_factors = _Factors(self.channel, rm, k21)
            self._last_state = state
        return self._last_factors

    def trace_rates(self, state: SaddleState) -> tuple[float, float]:
        """(f, C) in nats at ``state`` for the convergence trace, equal bit for
        bit to :func:`minimax_objective` and :func:`secrecy_rate` there:
        ln|K + Q| and ln|K| come from the factors, and ln|I + H2 R H2'| is
        shared by f and C."""
        ch, fac = self.channel, self.factors(state)
        ld_2 = _logdet_capacity_term(ch.H2, fac.R)
        f = 0.5 * (fac.logdet_KQ - fac.logdet_K - ld_2)
        return f, 0.5 * (_logdet_capacity_term(ch.H1, fac.R) - ld_2)

    # -- values ------------------------------------------------------------

    def value_ft(self, state: SaddleState) -> float:
        fac = self.factors(state)
        return fac.value_f() + (fac.logdet_R - fac.logdet_K) / self.t

    # -- Newton interface ----------------------------------------------------

    def newton_gradient(self, state: SaddleState) -> np.ndarray:
        return self._gradient_from(self.factors(state))

    def newton_system(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        fac = self.factors(state)
        g = self._gradient_from(fac)
        h = self._hessian_from(fac)
        return g, h

    def _gradient_from(self, fac: _Factors) -> np.ndarray:
        tinv = 1.0 / self.t
        return _gradient(self._ix, fac.Z1 - fac.Z2 + tinv * fac.Rinv,
                         fac.G - (1.0 + tinv) * fac.Kinv)

    def _hessian_from(self, fac: _Factors) -> np.ndarray:
        ix, n1 = self._ix, self.channel.n1
        tinv = 1.0 / self.t
        hxx = _hxx(ix, fac.Z1, fac.Z2, fac.Rinv, lambda p: tinv * p)
        f = fac.B.ravel()[ix.xy]
        p = f[0] * f[1]
        hxy = -(ix.xy_weight * (p[0] + p[1]))
        # Dt'((1 + 1/t) K^{-1} (x) K^{-1} - G (x) G) Dt from the n1 / n2 blocks
        ck, k, g = 1.0 + tinv, fac.Kinv, fac.G
        same = ck * kron(k[:n1, :n1], k[n1:, n1:]) - kron(g[:n1, :n1], g[n1:, n1:])
        cross = ck * kron(k[:n1, n1:], k[n1:, :n1]) - kron(g[:n1, n1:], g[n1:, :n1])
        hyy = 2.0 * (same + cross[:, ix.k21_transpose])
        h = np.empty((self.nx + self.ny, self.nx + self.ny))
        h[: self.nx, : self.nx] = hxx
        h[: self.nx, self.nx:] = hxy
        h[self.nx:, : self.nx] = hxy.T
        h[self.nx:, self.nx:] = hyy
        return h

    def bundle(self, state: SaddleState) -> DerivativeBundle:
        fac = self.factors(state)
        g = self._gradient_from(fac)
        h = self._hessian_from(fac)
        value_f = fac.value_f()
        value_ft = value_f + (fac.logdet_R - fac.logdet_K) / self.t
        value_c = 2.0 * secrecy_rate(self.channel, fac.R)
        return DerivativeBundle(
            grad_x=g[: self.nx],
            grad_y=g[self.nx:],
            hess_xx=h[: self.nx, : self.nx],
            hess_yy=h[self.nx:, self.nx:],
            hess_xy=h[: self.nx, self.nx:],
            value_f=value_f,
            value_ft=value_ft,
            value_C=value_c,
        )


def barrier_value(obj: BarrierObjective, r, k) -> float:
    """f_t at (R, K) in the solver's log-det convention (no 1/2 factor)."""
    rm = _as_matrix(r)
    k21 = _as_k21(k, obj.channel)
    fac = _Factors(obj.channel, rm, k21)
    return fac.value_f() + (fac.logdet_R - fac.logdet_K) / obj.t


def derivatives(obj: BarrierObjective, r, k) -> DerivativeBundle:
    """Exact gradients and Hessians of f_t at an interior point (R, K)."""
    rm = _as_matrix(r)
    k21 = _as_k21(k, obj.channel)
    state = SaddleState(x=vech(rm), y=vec(k21), lam=0.0)
    return obj.bundle(state)


class DegradedBarrierObjective:
    """Barrier objective for the degraded fast path: maximize

        f_t(R) = ln|I + W1 R| - ln|I + W2 R| + (1/t) ln|R|

    over x = vech(R) with tr R = P. No y block, same Newton interface."""

    def __init__(self, ch: ChannelPair, t: float, power: float):
        if t <= 0:
            raise ValueError("barrier parameter t must be positive")
        self.channel = ch
        self.t = float(t)
        self.power = float(power)
        self.nx = vech_len(ch.m)
        self.ny = 0
        self._ix = sandwich_indices(ch.m, 0, 0)
        self.constraint = (vech(np.eye(ch.m)), self.power)
        self._last_state = None   # one-slot reuse, as in BarrierObjective
        self._last_parts = None

    def unpack(self, state: SaddleState) -> np.ndarray:
        return unvech(state.x)

    def _parts(self, state: SaddleState):
        """(R^{-1}, Z1, Z2) at ``state``, built once per SaddleState object."""
        if state is not self._last_state:
            ch = self.channel
            rm = self.unpack(state)
            rinv = _chol_inv(_chol(rm, "transmit covariance"), ch.m)
            z1, _ = _z_matrix(ch.sqrt_W1, rm)
            z2, _ = _z_matrix(ch.sqrt_W2, rm)
            self._last_parts = (rinv, z1, z2)
            self._last_state = state
        return self._last_parts

    def trace_rates(self, state: SaddleState) -> tuple[float, float]:
        """(f, C) in nats at ``state``; without a K block f is C."""
        c = secrecy_rate(self.channel, self.unpack(state))
        return c, c

    def value_ft(self, state: SaddleState) -> float:
        rm = self.unpack(state)
        cf_r = _chol(rm, "transmit covariance")
        ld1 = _logdet_capacity_term(self.channel.H1, rm)
        ld2 = _logdet_capacity_term(self.channel.H2, rm)
        return ld1 - ld2 + _chol_logdet(cf_r) / self.t

    def newton_gradient(self, state: SaddleState) -> np.ndarray:
        rinv, z1, z2 = self._parts(state)
        return _gradient(self._ix, z1 - z2 + rinv / self.t)

    def newton_system(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        rinv, z1, z2 = self._parts(state)
        g = _gradient(self._ix, z1 - z2 + rinv / self.t)
        return g, _hxx(self._ix, z1, z2, rinv, lambda p: p / self.t)


class PerAntennaBarrierObjective:
    """Minimax barrier objective augmented with per-antenna power barriers

        + (1/t) sum_i ln(P_i - r_ii)   [+ (1/t) ln(P_tot - tr R) if capped]

    and no equality constraint row: all power limits act through barriers,
    so the Newton system has no multiplier block.
    """

    def __init__(self, ch: ChannelPair, t: float, caps: np.ndarray,
                 total: float | None = None):
        caps = np.asarray(caps, dtype=float).ravel()
        if caps.size != ch.m:
            raise ValueError(f"need {ch.m} per-antenna caps, got {caps.size}")
        if np.any(caps <= 0):
            raise ValueError("per-antenna caps must be positive")
        # power argument only feeds the inner objective's trace constraint
        # metadata; any positive value works since no equality row is used.
        self._inner = BarrierObjective(ch, t, float(np.sum(caps)))
        self.channel = ch
        self.t = float(t)
        self.caps = caps
        self.total = None if total is None else float(total)
        self.nx = self._inner.nx
        self.ny = self._inner.ny
        self.constraint = None
        self._diag_idx = vech_diag_indices(ch.m)
        self._a_full = np.zeros(self.nx + self.ny)
        self._a_full[: self.nx] = vech(np.eye(ch.m))

    def unpack(self, state: SaddleState):
        return self._inner.unpack(state)

    def trace_rates(self, state: SaddleState) -> tuple[float, float]:
        return self._inner.trace_rates(state)

    def _slacks(self, rm: np.ndarray) -> tuple[np.ndarray, float | None]:
        slack = self.caps - np.diag(rm)
        if np.any(slack <= 0):
            raise DomainError("per-antenna power cap violated")
        tslack = None
        if self.total is not None:
            tslack = self.total - float(np.trace(rm))
            if tslack <= 0:
                raise DomainError("total power cap violated")
        return slack, tslack

    def value_ft(self, state: SaddleState) -> float:
        rm, _ = self._inner.unpack(state)
        slack, tslack = self._slacks(rm)
        v = self._inner.value_ft(state) + float(np.sum(np.log(slack))) / self.t
        if tslack is not None:
            v += np.log(tslack) / self.t
        return v

    def newton_gradient(self, state: SaddleState) -> np.ndarray:
        rm, _ = self._inner.unpack(state)
        slack, tslack = self._slacks(rm)
        g = self._inner.newton_gradient(state)  # a fresh array
        g[self._diag_idx] -= 1.0 / (self.t * slack)
        if tslack is not None:
            g -= self._a_full / (self.t * tslack)
        return g

    def newton_system(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        rm, _ = self._inner.unpack(state)
        slack, tslack = self._slacks(rm)
        g, h = self._inner.newton_system(state)  # fresh arrays
        g[self._diag_idx] -= 1.0 / (self.t * slack)
        h[self._diag_idx, self._diag_idx] -= 1.0 / (self.t * slack**2)
        if tslack is not None:
            g -= self._a_full / (self.t * tslack)
            h -= np.outer(self._a_full, self._a_full) / (self.t * tslack**2)
        return g, h
