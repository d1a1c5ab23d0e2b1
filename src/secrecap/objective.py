"""Objective evaluations and exact derivatives in reduced coordinates.

Two value conventions coexist deliberately:

  * ``secrecy_rate`` and ``minimax_objective`` report rates in nats and carry
    the 1/2 factor of the log-det rate formulas.
  * everything the Newton solver touches (the objective classes below)
    works on plain log-det differences with NO 1/2 factor, so the
    gradient/Hessian expressions stay in their simplest form. Rates reported
    by the outer solver multiply by 0.5 at the end.

Coordinates: x = vech(R) with R the m x m transmit covariance, y = vec(K21)
with K21 the n2 x n1 cross block of the noise covariance.

``BarrierObjective`` is the one barrier objective of every solve path: a K
block or none (the degraded path), the equality row tr R = P (the dual's
``RateBarrierObjective``: f(R, K) = 2·rate) or none, and power limits as
linear inequality rows A x <= b, each adding a log barrier term.

An objective covers one channel at one t; ``BarrierObjective`` (the minimax
objective) may also cover a stack of same-shape channels. Its Newton methods
take one iterate, or a stack of iterates (``SaddleState`` with a leading
axis, one row per channel) and then return every result with that axis.
Each row is bit for bit what the same iterate gives alone: the math runs
over the stack, and each LAPACK factorization once per row (``matcalc``).

An objective keeps its work on the ``SaddleState`` it evaluated: the
factors, which do not depend on t and serve every objective of the same
channels and rows, and the gradient of ``newton_gradient``, which only the
objective that computed it reuses. So ``newton_system`` at an accepted line
search trial builds no gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelPair, NoiseCovariance, SaddleState, TransmitCovariance
from .errors import DomainError
from .matcalc import (
    chol,
    chol_inv,
    chol_logdet,
    chol_rows,
    chol_solve,
    identity,
    kron,
    noise_matrix,
    psd_sqrt,
    sandwich_indices,
    sym,
    unvech,
    vech,
    vech_diag_indices,
    vech_len,
)

__all__ = [
    "BarrierObjective",
    "DegradedBarrierObjective",
    "PerAntennaBarrierObjective",
    "RateBarrierObjective",
    "secrecy_rate",
    "minimax_objective",
    "gap_bound",
]


def gap_bound(m: int, n1: int, n2: int, t: float) -> float:
    """Capacity accuracy guarantee of the barrier solution at parameter t;
    without a K block n1 = n2 = 0, which gives m/t."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
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
    a = sym(identity(h.shape[-2]) + h @ r @ h.mT)
    return chol_logdet(chol(a, "capacity log-det argument"))


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


def _not_pd(what: str) -> str:
    return f"{what} is not strictly positive definite"


class _Factors:
    """Matrix factors of a barrier objective at a point or a stack of points:
    the R side always, the K side only with a K block (otherwise Z1 comes
    from the channel's W1^{1/2}), and the slacks b - A x of the inequality
    rows only with such rows (which take one point). Log-dets are taken from
    the Cholesky factors ``cf_*`` only when a value needs them. ``grad`` is
    the gradient that the objective ``grad_of`` computed from them, or None.

    The fields are matrices for one point and stacks of them (a leading
    axis) for a stack of points of the minimax objective, computed by the
    same code. In a stack, a row that leaves the barrier domain is dropped
    at the check it fails, before the next kernel runs (a stacked ``eigh``
    would fail for the whole stack); ``kept`` lists the positions of the
    rows left (None: all). DomainError names the check when no row is
    left."""

    __slots__ = (
        "kept", "grad_of", "R", "K21", "K", "Rinv", "Kinv", "G", "B", "Z1", "Z2",
        "cf_R", "cf_K", "cf_KQ", "cf_1", "cf_2", "slack", "grad",
    )
    _ROWS = __slots__[2:]  # the fields with one entry per row of a stack

    def __init__(self, obj: "BarrierObjective", state: SaddleState):
        rm, k21 = obj.unpack(state)
        h, s1, s2 = obj._channel_rows(state.rows, rm.ndim == 2, "Hstack", "sqrt_W1",
                                      "sqrt_W2")
        self.kept = self.grad_of = self.grad = None
        self.R = rm
        self.K21 = k21
        self.slack = None
        if obj.limits:  # summed in order: tr R and r_ii bit for bit, unlike BLAS a @ x
            self.slack = np.concatenate([b - (a * state.x[cols]).sum(axis=1)
                                         for cols, a, b in obj.limits])
            if not (self.slack > 0).all():
                raise DomainError("power cap violated")
        self.cf_R, bad = chol_rows(self.R)
        if bad:
            h, s1, s2 = self._drop(bad, _not_pd("transmit covariance"), h, s1, s2)
        self.Rinv = chol_inv(self.cf_R)

        if k21 is None:  # degraded, or minimax with n1 or n2 zero
            self.Z1, self.cf_1, s2 = self._z_matrix(s1, s2)
        else:
            self.K = noise_matrix(self.K21)
            self.cf_K, bad = chol_rows(self.K)
            if bad:
                h, s2 = self._drop(bad, _not_pd("noise covariance"), h, s2)
            self.Kinv = chol_inv(self.cf_K)

            ht = h.mT
            q = sym(h @ self.R @ ht)
            self.cf_KQ, bad = chol_rows(self.K + q)
            if bad:
                h, ht, s2 = self._drop(bad, _not_pd("K + Q"), h, ht, s2)
            self.G = chol_inv(self.cf_KQ)
            self.B = ht @ self.G

            w = sym(ht @ (self.Kinv @ h))
            self.Z1, _, s2 = self._z_matrix(psd_sqrt(w), s2)
        self.Z2, self.cf_2 = self._z_matrix(s2)

    def _drop(self, bad, message: str, *local):
        """Drops the rows at positions ``bad`` from every field set so far
        and from the arrays ``local``, which it returns; DomainError(message)
        when no row is left."""
        if self.R.ndim == 2:
            raise DomainError(message)
        ok = np.ones(len(self.R), dtype=bool)
        ok[bad] = False
        if not ok.any():
            raise DomainError(message)
        self.kept = np.flatnonzero(ok) if self.kept is None else self.kept[ok]
        for name in self._ROWS:
            value = getattr(self, name, None)
            if value is not None:
                setattr(self, name, value[ok])
        return tuple(a[ok] for a in local)

    def _z_matrix(self, s: np.ndarray, *local):
        """Z = (I + W R)^{-1} W through the symmetric form S (I + S R S)^{-1} S
        with S = W^{1/2}; always symmetric and valid for singular W. Also
        returns the Cholesky factor of I + S R S, whose log-det is
        ln|I + W R|, and ``local`` after any row drop."""
        cf, bad = chol_rows(identity(s.shape[-1]) + sym(s @ self.R @ s))
        if bad:
            cf, s, *local = self._drop(bad, _not_pd("I + S R S"), cf, s, *local)
        return (sym(s @ chol_solve(cf, s)), cf, *local)

    def take(self, idx) -> "_Factors":
        """The factors of the rows at positions ``idx`` of the stack they were
        built for (rows inside the domain only); of one point for an integer
        ``idx``, without the leading axis."""
        if self.kept is not None:
            idx = np.searchsorted(self.kept, idx)
        out = object.__new__(type(self))
        out.kept, out.grad_of = None, self.grad_of
        for name in self._ROWS:
            value = getattr(self, name, None)
            setattr(out, name, None if value is None else value[idx])
        return out

    @classmethod
    def concat(cls, parts: list) -> "_Factors":
        """One stack of the rows of ``parts``, in order; with a gradient only
        when one objective computed that of every part."""
        out = object.__new__(cls)
        out.kept, out.grad_of = None, parts[0].grad_of
        if any(p.grad_of is not out.grad_of for p in parts):
            out.grad_of = None
        for name in cls._ROWS:
            values = [getattr(p, name, None) for p in parts]
            keep = values[0] is not None and (name != "grad" or out.grad_of is not None)
            setattr(out, name, np.concatenate(values) if keep else None)
        return out

    def value_f(self):
        """f without the 1/2 factor; without a K block f is C."""
        if self.K21 is None:
            return chol_logdet(self.cf_1) - chol_logdet(self.cf_2)
        return chol_logdet(self.cf_KQ) - chol_logdet(self.cf_K) - chol_logdet(self.cf_2)


def _hxx(ix, z1, z2, rinv, tinv: float) -> np.ndarray:
    """-D'(Z1 (x) Z1 - Z2 (x) Z2 + (1/t) R^{-1} (x) R^{-1}) D, bit for bit, by
    gathers over the stacked factors (per row for stacks of them)."""
    a = np.concatenate((z1, z2, rinv), axis=-2)
    p = _gather(a, ix.xx[0])  # in place from here: a stack's gathers are large
    p *= _gather(a, ix.xx[1])
    p[2] *= tinv
    terms = np.subtract(p[0], p[1], out=p[0])
    terms += p[2]  # Z1 (x) Z1 - Z2 (x) Z2 + (1/t) R^{-1} (x) R^{-1} at X and Y
    if z1.ndim == 2:
        return -(ix.xx_weight * (terms[0] + terms[1]))
    return np.moveaxis(-(ix.xx_weight[..., None] * (terms[0] + terms[1])), -1, 0)


def _gradient(ix, *grads: np.ndarray) -> np.ndarray:
    """(D' vec(grad_R), Dt' vec(grad_K)) of exactly symmetric gradient
    matrices (per row for stacks of them), bit for bit
    (``matcalc.sandwich_indices``)."""
    if grads[0].ndim == 2:
        return ix.grad_weight * np.concatenate([a.ravel() for a in grads])[ix.grad]
    flat = np.concatenate([a.reshape(len(a), -1) for a in grads], axis=1)
    return ix.grad_weight * flat[:, ix.grad]


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The entries of a matrix at the flat (C-order) indices ``idx``; for a
    stack of matrices, with the stack's axis last, so that the formulas
    index the gathered axes alike for one matrix and for a stack."""
    return a.ravel()[idx] if a.ndim == 2 else a.reshape(len(a), -1).T[idx]


class BarrierObjective:
    """Barrier-augmented saddle objective

        f_t(R, K) = f(R, K) + (1/t) ln|R| - (1/t) ln|K|

    maximized over x = vech(R) subject to tr R = P and minimized over
    y = vec(K21). Provides the gradient and the full indefinite Hessian of
    f_t for the primal-dual Newton solver, and the gap bound of a stage solution.

    ``ch`` is one ChannelPair, or a sequence of ChannelPairs of one shape
    that Newton iterates in lockstep; ``channels`` holds them, and
    ``channel`` is the channel of a one-channel objective (None for more).
    A stacked iterate's ``rows`` say which channel each row belongs to.

    The subclasses configure it: without the K block (degraded) f is
    C(R) = ln|I + W1 R| - ln|I + W2 R| and there is no y; ``limits``, blocks
    of inequality rows A x <= b, add (1/t) sum ln(b - A x) to f_t, with
    gradient -A'(1/(t s)) and Hessian -A' diag(1/(t s^2)) A at s = b - A x
    (Boyd & Vandenberghe, Convex Optimization, §11.2). The subclasses take
    one ChannelPair only.
    """

    _k_block = True
    _lockstep = True  # takes a sequence of channels too
    power = None  # the budget of the row tr R = P; None when tr R is free
    limits = ()   # blocks (cols, a, b): rows A x <= b, A zero off cols; one point only

    def __init__(self, ch, t: float, power: float):
        self._setup(ch, t, power=power)
        self.power = float(power)
        self.constraint = (self._trace_column(), self.power)

    def _trace_column(self) -> np.ndarray:
        """a with a'z = tr R: the power row and the multiplier column."""
        a = np.zeros(self.nx + self.ny)
        a[: self.nx] = vech(np.eye(self.m))
        return a

    def border(self, state: SaddleState):
        """The equality row at ``state`` as (residual, gradient): a'z - P and
        a (the residuals per row for a stack)."""
        a, b = self.constraint
        if state.x.ndim == 1:
            return float(a @ state.z - b), a
        return (a @ state.z[..., None])[:, 0] - b, a

    def _setup(self, ch, t: float, **fields) -> None:
        """Checks t and the power fields, and sets the channels and the
        dimensions."""
        for name, value in (("t", t), *fields.items()):
            if value is not None and not np.all(np.isfinite(value) & (value > 0)):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if isinstance(ch, ChannelPair):
            self.channels = (ch,)
        elif self._lockstep:
            self.channels = tuple(ch)
        else:
            raise ValueError(f"{type(self).__name__} takes one ChannelPair")
        first = self.channels[0]
        if any((c.m, c.n1, c.n2) != (first.m, first.n1, first.n2)
               for c in self.channels):
            raise ValueError("the channels of one objective must share one shape")
        self.channel = first if len(self.channels) == 1 else None
        self.t = float(t)
        self.m = first.m
        self.n1, self.n2 = (first.n1, first.n2) if self._k_block else (0, 0)
        self.nx = vech_len(self.m)
        self.ny = self.n1 * self.n2
        self._ix = sandwich_indices(self.m, self.n1, self.n2)
        self._stacks = {}

    def _channel_rows(self, rows, single: bool, *names: str) -> list:
        """The channel matrices ``names`` of the channels ``rows`` (None:
        all), stacked; for one point, the matrices of its channel."""
        if single:
            ch = self.channels[0 if rows is None else rows[0]]
            return [getattr(ch, name) for name in names]
        out = []
        for name in names:
            stack = self._stacks.get(name)
            if stack is None:
                stack = self._stacks[name] = np.stack(
                    [getattr(ch, name) for ch in self.channels])
            out.append(stack if rows is None else stack[rows])
        return out

    def gap(self) -> float:
        """Capacity gap bound of a solution of this stage; with inequality
        rows (m + #rows + n1 + n2)/t, which counts every barrier term and is
        heuristic (it lacks the exact constant of the total-power analysis)."""
        if not self.limits:
            return gap_bound(self.m, self.n1, self.n2, self.t)
        rows = sum(len(b) for _, _, b in self.limits)
        return (self.m + rows + self.n1 + self.n2) / self.t

    @property
    def gap_heuristic(self) -> bool:
        """Whether gap() is not a proven bound: exactly with inequality rows."""
        return bool(self.limits)

    def _limit_blocks(self, values: np.ndarray):
        """(cols, a, v) of each block of inequality rows, v the block's part
        of ``values``, one per row."""
        start = 0
        for cols, a, b in self.limits:
            yield cols, a, values[start:start + len(b)]
            start += len(b)

    # -- state unpacking ---------------------------------------------------

    def unpack(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray | None]:
        """(R, K21) at ``state`` (stacks of them for a stack); K21 is None
        without a K block."""
        rm = unvech(state.x)
        if not self.ny:
            return rm, None
        y = state.y  # vec(K21) is column-major: K21[r, c] = y[c * n2 + r]
        return rm, y.reshape(y.shape[:-1] + (self.n1, self.n2)).mT

    def factors(self, state: SaddleState) -> _Factors:
        """Factors at ``state``, built once per SaddleState object. They do
        not depend on t, so the next stage's objective reuses them."""
        cache = state.cache
        if cache is not None and (cache[0] is self or self._same_factors(cache[0])):
            return cache[1]
        fac = _Factors(self, state)
        state.cache = (self, fac)
        return fac

    def _same_factors(self, other) -> bool:
        """Whether ``other`` builds the factors this objective builds at a
        point: the same class, channels and inequality rows, whatever its t."""
        return (type(other) is type(self) and len(other.channels) == len(self.channels)
                and all(a is b for a, b in zip(other.channels, self.channels))
                and len(other.limits) == len(self.limits)
                and all(np.array_equal(p, q) for u, v in zip(self.limits, other.limits)
                        for p, q in zip(u, v)))

    def _inside(self, state: SaddleState) -> _Factors:
        """Factors at ``state``, every row of which must be inside the
        barrier domain."""
        fac = self.factors(state)
        if fac.kept is not None:
            raise DomainError(f"{len(state.x) - len(fac.kept)} of {len(state.x)} "
                              "rows are outside the barrier domain")
        return fac

    # -- Newton interface ----------------------------------------------------

    def newton_gradient(self, state: SaddleState) -> np.ndarray:
        """The gradient; for a stack, a row outside the barrier domain gets
        an infinite one, and DomainError is raised when no row is inside."""
        fac = self.factors(state)
        g = self._kept_gradient(fac)
        if fac.kept is None:
            return g
        out = np.full((len(state.x), g.shape[-1]), np.inf)
        out[fac.kept] = g
        return out

    def newton_system(self, state: SaddleState) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Hessian); the gradient is the one ``newton_gradient``
        kept at ``state`` when this objective computed it."""
        fac = self._inside(state)
        return self._kept_gradient(fac), self._hessian_from(fac)

    def _kept_gradient(self, fac: _Factors) -> np.ndarray:
        """The gradient of the rows of ``fac`` inside the domain, computed
        once per objective and kept read-only on ``fac``: it depends on t."""
        if fac.grad_of is not self:
            fac.grad = self._gradient_from(fac)
            fac.grad.flags.writeable = False
            fac.grad_of = self
        return fac.grad

    def _gradient_from(self, fac: _Factors) -> np.ndarray:
        tinv = 1.0 / self.t
        grads = [fac.Z1 - fac.Z2 + tinv * fac.Rinv]
        if self.ny:
            grads.append(fac.G - (1.0 + tinv) * fac.Kinv)
        g = _gradient(self._ix, *grads)
        if self.limits:
            for cols, a, w in self._limit_blocks(1.0 / (self.t * fac.slack)):
                g[cols] -= w @ a
        return g

    def _hessian_from(self, fac: _Factors) -> np.ndarray:
        ix, n1, nx, ny = self._ix, self.n1, self.nx, self.ny
        tinv = 1.0 / self.t
        h = _hxx(ix, fac.Z1, fac.Z2, fac.Rinv, tinv)
        if ny:
            f = _gather(fac.B, ix.xy)
            p = f[0] * f[1]
            if fac.B.ndim == 2:
                hxy = -(ix.xy_weight * (p[0] + p[1]))
            else:
                hxy = np.moveaxis(-(ix.xy_weight[..., None] * (p[0] + p[1])), -1, 0)
            # Dt'((1 + 1/t) K^{-1} (x) K^{-1} - G (x) G) Dt from the n1 / n2 blocks
            ck, k, g = 1.0 + tinv, fac.Kinv, fac.G
            same = (ck * kron(k[..., :n1, :n1], k[..., n1:, n1:])
                    - kron(g[..., :n1, :n1], g[..., n1:, n1:]))
            cross = (ck * kron(k[..., :n1, n1:], k[..., n1:, :n1])
                     - kron(g[..., :n1, n1:], g[..., n1:, :n1]))
            hxx, h = h, np.empty(h.shape[:-2] + (nx + ny, nx + ny))
            h[..., :nx, :nx] = hxx
            h[..., :nx, nx:] = hxy
            h[..., nx:, :nx] = hxy.mT
            h[..., nx:, nx:] = 2.0 * (same + cross[..., ix.k21_transpose])
        if self.limits:  # block by block: one product rounds shared entries differently
            for cols, a, w in self._limit_blocks(1.0 / (self.t * fac.slack**2)):
                h[cols[:, None], cols] -= (a.T * w) @ a
        return h


class DegradedBarrierObjective(BarrierObjective):
    """The barrier objective without a K block, for the degraded fast path:
    maximize

        f_t(R) = ln|I + W1 R| - ln|I + W2 R| + (1/t) ln|R|

    over x = vech(R) with tr R = P."""

    _k_block = False
    _lockstep = False


class RateBarrierObjective(BarrierObjective):
    """The minimax barrier objective of the dual: the rate row

        f(R, K) = 2·rate   (log-det units)

    replaces tr R = P, and P = tr R is an output. The multiplier column stays
    a, so the stationarity block is the minimax one at P = tr R, and a
    solution is the central point at which f reaches the rate, with the
    multiplier of a minimax solve there (slope dCs/dP = lambda*/2). The
    row's gradient is that of f without barrier terms. One channel.
    """

    _lockstep = False

    def __init__(self, ch, t: float, rate: float):
        self._setup(ch, t, rate=rate)
        self.constraint = (self._trace_column(), 2.0 * float(rate))

    def border(self, state: SaddleState):
        """f - 2·rate and (D' vec(Z1 - Z2), Dt' vec(G - K^{-1})) at ``state``;
        without a K block the gradient is D' vec(Z1 - Z2)."""
        fac = self._inside(state)
        grads = [fac.Z1 - fac.Z2]
        if self.ny:
            grads.append(fac.G - fac.Kinv)
        return float(fac.value_f()) - self.constraint[1], _gradient(self._ix, *grads)


class PerAntennaBarrierObjective(BarrierObjective):
    """The minimax barrier objective with the power limits as inequality
    rows, r_ii <= P_i and then tr R <= P_tot when capped, which add

        + (1/t) sum_i ln(P_i - r_ii)   [+ (1/t) ln(P_tot - tr R)]

    and no equality row, so the Newton system has no multiplier block.
    """

    _lockstep = False

    def __init__(self, ch, t: float, caps: np.ndarray, total: float | None = None):
        caps = np.asarray(caps, dtype=float).ravel()
        self._setup(ch, t, caps=caps, total=total)
        if caps.size != self.m:
            raise ValueError(f"need {self.m} per-antenna caps, got {caps.size}")
        d = vech_diag_indices(self.m)  # rows e_{d_i}' and vech(I)' are zero off d
        self.limits = ((d, np.eye(self.m), caps),)
        if total is not None:
            self.limits += ((d, np.ones((1, self.m)), np.array([float(total)])),)
        self.constraint = None
