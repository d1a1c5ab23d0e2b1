"""Residual-form primal-dual Newton inner solver.

Solves the stationarity system r(w) = 0 for w = (z, lam) where

    r = [ grad f_t(z) + lam * a ]      (stationarity block)
        [ a' z - b            ]        (equality block, when present)

by damped Newton steps T dw = -r with the indefinite KKT matrix

    T = [ hess f_t   a ]
        [ a'         0 ].

The objective is any object exposing ``newton_gradient(state)``,
``newton_system(state)`` (both raising DomainError outside the barrier
domain) and ``constraint`` (an ``(a, b)`` pair over the stacked primal
vector, or None for unconstrained saddle systems). Backtracking accepts a
step only when the residual norm satisfies |r_new| <= (1 - alpha*s)|r_old|,
which makes residual decrease a structural property of the iteration; trial
points outside the barrier domain count as infinite residual. A step that does
not solve its system (a zero LU pivot, or a backward error above 1e-10) raises
SingularKktError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .channel import SaddleState
from .errors import DomainError, LineSearchError, SingularKktError

__all__ = [
    "KktSystem",
    "NewtonReport",
    "assemble",
    "newton_step",
    "line_search",
    "newton_solve",
    "residual",
]

S_MIN = 1e-12                # line-search stagnation floor
DEFAULT_MAX_ITER = 200

# The LAPACK routines behind scipy's lu_factor/lu_solve, fetched once and
# called without the per-call wrapper overhead (same routines, same bits).
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass(frozen=True)
class KktSystem:
    """Residual vector and KKT matrix assembled at one iterate."""

    residual: np.ndarray
    kkt_matrix: np.ndarray


@dataclass
class NewtonReport:
    """What one Newton solve observed: the residual norm at the start and
    after each accepted step, the accepted step sizes, and why it stopped
    short of the tolerance (None once it met it)."""

    residual_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    failure: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)

    @property
    def final_residual_norm(self) -> float:
        return self.residual_norms[-1]

    @property
    def converged(self) -> bool:
        return self.failure is None


def residual(obj, state: SaddleState) -> np.ndarray:
    """Stationarity + equality residual at ``state``. DomainError if the
    point is outside the barrier domain."""
    g = obj.newton_gradient(state)
    if obj.constraint is None:
        return g
    a, b = obj.constraint
    top = g + state.lam * a
    eq = float(a @ state.z - b)
    return np.concatenate([top, [eq]])


def assemble(obj, state: SaddleState) -> KktSystem:
    """Build the Newton residual and KKT matrix at ``state``."""
    g, h = obj.newton_system(state)
    if obj.constraint is None:
        return KktSystem(residual=g, kkt_matrix=h)
    a, b = obj.constraint
    n = g.size
    t = np.zeros((n + 1, n + 1))
    t[:n, :n] = h
    t[:n, n] = a
    t[n, :n] = a
    r = np.concatenate([g + state.lam * a, [float(a @ state.z - b)]])
    return KktSystem(residual=r, kkt_matrix=t)


def newton_step(sys: KktSystem) -> np.ndarray:
    """Solve T dw = -r by LU with partial pivoting and one refinement pass.

    Raises SingularKktError when the step does not solve its system: the LU
    factor has an exactly zero pivot, or the refined step's backward error
    |T dw + r| / (|T|_1 |dw| + |r|) is not at most 1e-10 (a NaN or infinite
    entry fails it too). No condition estimate gates the step: the estimate
    follows the units of P, and a badly scaled system solves to full accuracy.
    """
    t = sys.kkt_matrix
    r = sys.residual
    lu, piv, info = _getrf(t)
    if info > 0:
        raise SingularKktError(
            f"KKT matrix singular: LU pivot {info} of {t.shape[0]} is zero")
    dw = _getrs(lu, piv, -r)[0]
    # one refinement step; cheap insurance on ill-conditioned systems
    res = t @ dw + r
    dw -= _getrs(lu, piv, res)[0]
    back_err = np.linalg.norm(t @ dw + r) / max(
        np.linalg.norm(t, 1) * np.linalg.norm(dw) + np.linalg.norm(r), 1e-300
    )
    if not back_err <= 1e-10:
        raise SingularKktError(
            f"Newton step backward error {back_err:.3e} exceeds 1e-10"
        )
    return dw


def _split_step(obj, dw: np.ndarray) -> tuple[np.ndarray, float]:
    if obj.constraint is None:
        return dw, 0.0
    return dw[:-1], float(dw[-1])


def _trial_norm(obj, state: SaddleState, dz, dlam, s: float) -> tuple:
    trial = state.stepped(dz, dlam, s)
    try:
        r = residual(obj, trial)
    except DomainError:
        return None, None, np.inf
    return trial, r, float(np.linalg.norm(r))


def line_search(obj, state: SaddleState, dw: np.ndarray, alpha: float,
                beta: float, r0_norm: float | None = None):
    """Backtracking on the residual norm (accept while
    |r(w + s dw)| > (1 - alpha s)|r(w)| shrink s by beta), with trial points
    outside the barrier domain treated as infinite residual.

    Returns (s, new_state, new_residual_norm). Raises LineSearchError if s
    falls below ``S_MIN``. Callers stop on |r| = 0 before invoking this; a
    zero current residual admits no decrease and would stagnate here.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if r0_norm is None:
        r0_norm = float(np.linalg.norm(residual(obj, state)))
    dz, dlam = _split_step(obj, dw)
    s = 1.0
    last = np.inf
    while s >= S_MIN:
        trial, _, rnorm = _trial_norm(obj, state, dz, dlam, s)
        if rnorm <= (1.0 - alpha * s) * r0_norm:
            return s, trial, rnorm
        last = rnorm
        s *= beta
    raise LineSearchError(
        f"line search stagnated: s < {S_MIN:g}, |r|={r0_norm:.3e}, "
        f"last trial |r|={last:.3e}"
    )


def newton_solve(obj, state: SaddleState, eps: float = 1e-10,
                 max_iter: int = DEFAULT_MAX_ITER, alpha: float = 0.3,
                 beta: float = 0.5, callback=None):
    """Damped Newton iteration until |r| <= eps.

    Returns (state, NewtonReport). Line-search stagnation and iteration
    exhaustion yield a non-converged report rather than an exception; the
    caller decides how to proceed. ``callback(k, state, r_norm, s)`` runs
    after each accepted step.
    """
    report = NewtonReport()
    rnorm = float(np.linalg.norm(residual(obj, state)))
    report.residual_norms.append(rnorm)
    while not rnorm <= eps:  # a NaN residual has not converged either
        if report.iterations == max_iter:
            report.failure = f"not converged after {max_iter} iterations"
            break
        dw = newton_step(assemble(obj, state))
        try:
            s, state, rnorm = line_search(obj, state, dw, alpha, beta,
                                          r0_norm=rnorm)
        except LineSearchError as exc:
            report.failure = str(exc)
            break
        report.step_sizes.append(s)
        report.residual_norms.append(rnorm)
        if callback is not None:
            callback(report.iterations, state, rnorm, s)
    return state, report
