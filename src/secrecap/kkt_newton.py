"""Residual-form primal-dual Newton inner solver.

Solves the stationarity system r(w) = 0 for w = (z, lam) where

    r = [ grad f_t(z) + lam * a ]      (stationarity block)
        [ c(z)                ]        (equality block, when present)

by damped Newton steps T dw = -r with the indefinite KKT matrix

    T = [ hess f_t   a ]
        [ grad c'    0 ].

The equality row is the power row c(z) = a' z - b, whose gradient is a, or
the dual's rate row c(z) = f(z) - b, which makes T unsymmetric.

The objective is any object exposing ``newton_gradient(state)``,
``newton_system(state)`` (both raising DomainError outside the barrier
domain) and ``constraint`` (an ``(a, b)`` pair over the stacked primal
vector, or None for unconstrained saddle systems); with a constraint also
``row_value(state)``, the row's c(z), and ``row_gradient(state)``, its
grad c: a residual reads the value alone, ``assemble`` both, and the
objective keeps them on ``state``. Backtracking
accepts a step only when the residual norm satisfies |r_new| <= (1 -
ALPHA*s)|r_old|, which makes residual decrease a structural property of the
iteration; it starts at s = 1 and shrinks s by BETA, and trial points
outside the barrier domain count as infinite residual.

Every function takes one iterate or a stack of them, one row per channel of
a stacked objective: the channels then move in lockstep through one loop,
and each row's numbers are bit for bit those of its channel solved alone.
``newton_step``, ``line_search`` and ``newton_solve`` have one contract for
both: per-row lists (one entry for one iterate, whose arrays keep no
leading axis), and a row that fails is marked in its entry instead of
raising: ``newton_step`` returns its SingularKktError, ``line_search`` a
step size of NaN, and ``newton_solve`` the SolverError that ended it, its
one failure record. No row's failure moves another row. One iterate runs
the one-matrix kernels, which are faster than a stack of one.

``predict`` starts a barrier stage from the previous stage's central point
by one tangent step of the central path, solved with the previous stage's
KKT matrix and taken whole or not at all, and ``newton_solve(...,
previous=)`` solves a stage from it. ``newton_solve(..., loose=)`` centers
only approximately: a row also stops after a whole step whose Newton
decrement sum_i |r_i dw_i| was at most ``loose``, which the barrier schedule
sets to 1/t on every stage before the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SaddleState
from .errors import DomainError, SingularKktError, SolverError
from .matcalc import getrf, getrs

__all__ = [
    "KktSystem",
    "NewtonReport",
    "assemble",
    "newton_step",
    "line_search",
    "newton_solve",
    "predict",
    "residual",
]

ALPHA = 0.3                  # sufficient residual decrease per unit step
BETA = 0.5                   # backtracking factor
S_MIN = 1e-12                # line-search stagnation floor
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class KktSystem:
    """Residual vector and KKT matrix assembled at one iterate."""

    residual: np.ndarray
    kkt_matrix: np.ndarray


@dataclass
class NewtonReport:
    """What one Newton solve observed: the residual norm at the start and
    after each accepted step and the accepted step sizes. Why a solve
    failed is its error, which ``newton_solve`` returns beside the report.

    A stage solved from the previous stage's central point w also records
    its start: ``predictor_step``, 1.0 when it took the whole tangent step
    (None without a previous stage and for a rejected prediction), and
    ``rerun``, whether the solve from the prediction failed and the steps
    listed are those of a second solve from w."""

    residual_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    predictor_step: float | None = None
    rerun: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)

    @property
    def final_residual_norm(self) -> float:
        return self.residual_norms[-1]


def _norms(v: np.ndarray) -> np.ndarray:
    """2-norm of a vector or of each row, bit for bit ``np.linalg.norm``."""
    if v.ndim == 1:
        return np.sqrt(v.dot(v))
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _bordered(obj, state: SaddleState, g: np.ndarray) -> np.ndarray:
    """The residual from the gradient ``g``: with an equality row, the
    multiplier term and the row's own residual at ``state``."""
    if obj.constraint is None:
        return g
    a, _ = obj.constraint
    eq = obj.row_value(state)
    if g.ndim == 1:
        return np.concatenate([g + state.lam * a, [eq]])
    return np.concatenate([g + state.lam[:, None] * a, eq[:, None]], axis=1)


def residual(obj, state: SaddleState) -> np.ndarray:
    """Stationarity + equality residual at ``state``. DomainError if the
    point is outside the barrier domain; for a stack, rows outside it are
    infinite, and DomainError means that no row is inside."""
    return _bordered(obj, state, obj.newton_gradient(state))


def assemble(obj, state: SaddleState) -> KktSystem:
    """Build the Newton residual and KKT matrix at ``state`` (stacks of them
    for a stack of iterates)."""
    g, h = obj.newton_system(state)
    if obj.constraint is None:
        return KktSystem(residual=g, kkt_matrix=h)
    a, _ = obj.constraint
    n = g.shape[-1]
    t = np.zeros(g.shape[:-1] + (n + 1, n + 1))
    t[..., :n, :n] = h
    t[..., :n, n] = a
    t[..., n, :n] = obj.row_gradient(state)
    return KktSystem(residual=_bordered(obj, state, g), kkt_matrix=t)


def newton_step(sys: KktSystem):
    """Solve T dw = -r by LU with partial pivoting and one refinement pass.

    Returns (dw, errors): the step, and per system None or the
    SingularKktError of a system the step does not solve, whose dw is NaN.
    That is a system whose LU factor has an exactly zero pivot, or whose
    refined step's backward error |T dw + r| / (|T|_1 |dw| + |r|) is not at
    most 1e-10 (a NaN or infinite entry fails it too). No condition estimate
    gates the step: the estimate follows the units of P, and a badly scaled
    system solves to full accuracy.

    A stack of systems (a leading axis) gets a step and an error per row:
    the LU runs once per row, in place on one column-major copy of the
    stack (the systems are kept), the refinement products and norms over
    the stack.
    """
    t, r = sys.kkt_matrix, sys.residual
    if t.ndim == 2:  # one system, without the bookkeeping of a stack
        lu, piv, info = getrf(t)
        if info > 0:
            return np.full(r.shape, np.nan), [_pivot_error(info, t)]
        dw = getrs(lu, piv, -r)[0]
        # one refinement step; cheap insurance on ill-conditioned systems
        dw -= getrs(lu, piv, t @ dw + r)[0]
        back_err = _backward_error(t, dw, r)
        if back_err <= 1e-10:
            return dw, [None]
        return np.full(r.shape, np.nan), [_refinement_error(back_err)]
    errors, lus = [None] * len(t), []
    tf = t.mT.copy().mT  # column-major slices, factored in place; t is kept
    dw = np.empty(r.shape)
    for i in range(len(t)):
        lu, piv, info = getrf(tf[i], overwrite_a=1)
        if info > 0:
            errors[i] = _pivot_error(info, t)
            continue
        dw[len(lus)] = getrs(lu, piv, -r[i])[0]
        lus.append((lu, piv))
    if not lus:
        return np.full(r.shape, np.nan), errors
    ok = [i for i, e in enumerate(errors) if e is None]
    ts, rs = (t, r) if len(ok) == len(t) else (t[ok], r[ok])
    dw = dw[:len(ok)]
    res = (ts @ dw[..., None])[..., 0] + rs
    for dw_i, res_i, (lu, piv) in zip(dw, res, lus):
        dw_i -= getrs(lu, piv, res_i)[0]
    for j, back_err in enumerate(_backward_error(ts, dw, rs).tolist()):
        if not back_err <= 1e-10:
            errors[ok[j]] = _refinement_error(back_err)
    if errors.count(None) == len(errors):
        return dw, errors
    out = np.full(r.shape, np.nan)
    for j, i in enumerate(ok):
        if errors[i] is None:
            out[i] = dw[j]
    return out, errors


def _backward_error(t: np.ndarray, dw: np.ndarray, r: np.ndarray):
    """|T dw + r| / (|T|_1 |dw| + |r|) of one system or of each of a stack."""
    res = t @ dw + r if dw.ndim == 1 else (t @ dw[..., None])[..., 0] + r
    return _norms(res) / np.maximum(
        np.abs(t).sum(axis=-2).max(axis=-1) * _norms(dw) + _norms(r), 1e-300)


def _pivot_error(info: int, t: np.ndarray) -> SingularKktError:
    return SingularKktError(f"KKT matrix singular: LU pivot {info} of {t.shape[-1]} is zero")


def _refinement_error(back_err: float) -> SingularKktError:
    return SingularKktError(f"Newton step backward error {back_err:.3e} exceeds 1e-10")


def _split_step(obj, dw: np.ndarray) -> tuple:
    if obj.constraint is None:
        return dw, 0.0
    if dw.ndim == 1:
        return dw[:-1], float(dw[-1])
    return dw[:, :-1], dw[:, -1]


def _trial_norm(obj, state: SaddleState, dz, dlam, s: float) -> tuple:
    """``state`` stepped by s and the list of its residual norms (one per row
    of a stack, infinite outside the barrier domain); no trial when every
    row is outside."""
    trial = state.stepped(dz, dlam, s)
    try:
        norms = _norms(residual(obj, trial))
    except DomainError:
        return None, [math.inf] * (1 if state.x.ndim == 1 else len(state.x))
    return trial, [float(norms)] if norms.ndim == 0 else norms.tolist()


def line_search(obj, state: SaddleState, dw: np.ndarray, r0_norm=None):
    """Backtracking on the residual norm (accept while
    |r(w + s dw)| > (1 - ALPHA s)|r(w)| shrink s by BETA), with trial points
    outside the barrier domain treated as infinite residual.

    ``r0_norm`` lists the residual norms at ``state``, one per row (computed
    when None). Returns (s, new_state, new_residual_norms), the lists
    aligned with the rows of ``state``: a row whose s fell below S_MIN
    stagnated; it keeps its iterate, has s NaN and the norm of its last
    trial. Every row of a stack backtracks on its own norm, and all rows
    still searching share s, so one trial evaluates them together. Callers
    stop on |r| = 0 before invoking this; a zero current residual admits no
    decrease and would stagnate here.
    """
    r0 = (np.atleast_1d(_norms(residual(obj, state))).tolist() if r0_norm is None
          else r0_norm)
    n = len(r0)
    dz, dlam = _split_step(obj, dw)
    s_out, rn_out = [math.nan] * n, [math.nan] * n
    pos = list(range(n))  # positions still searching
    pieces = []  # (positions, accepted trial rows)
    base = state
    s = 1.0
    while s >= S_MIN:
        trial, rnorm = _trial_norm(obj, base, dz, dlam, s)
        ok = [rn <= (1.0 - ALPHA * s) * r0[p] for p, rn in zip(pos, rnorm)]
        for p, rn, o in zip(pos, rnorm, ok):
            rn_out[p] = rn
            if o:
                s_out[p] = s
        if all(ok):
            pieces.append((pos, trial))
            pos = []
            break
        if any(ok):  # some rows of a stack
            acc = [i for i, o in enumerate(ok) if o]
            keep = [i for i, o in enumerate(ok) if not o]
            pieces.append(([pos[i] for i in acc], trial.take(acc)))
            # the rows still searching, without the factors they no longer need
            base = SaddleState(base.x, base.y, base.lam, base.rows).take(keep)
            pos = [pos[i] for i in keep]
            dz = dz[keep]
            dlam = dlam if np.ndim(dlam) == 0 else dlam[keep]
        s *= BETA
    if pos:  # the rows that stagnated
        pieces.append((pos, state if state.x.ndim == 1 else state.take(pos)))
    return s_out, _in_order(pieces), rn_out


def _in_order(pieces: list) -> SaddleState:
    """One stack of the (positions, rows) pieces, row p at position p."""
    if len(pieces) == 1:
        return pieces[0][1]
    order = np.argsort(np.concatenate([pos for pos, _ in pieces]))
    return SaddleState.concat([rows for _, rows in pieces]).take(order)


def predict(previous, obj, state: SaddleState):
    """The start of stage ``obj`` from ``state``, a central point of stage
    ``previous``: the first-order prediction along the central path

        w + (1/t - 1/t') T^{-1} [grad phi; 0]

    with T the KKT matrix of ``previous`` at w = ``state`` and phi its
    barrier sum (``barrier_gradient``). The residual depends on s = 1/t only
    through s grad phi, and the equality row not at all. The step solves by
    ``newton_step`` (its refinement and backward-error gate) and is taken
    whole or not at all: one trial at s = 1 under ``obj``, accepted by the
    test ``line_search`` puts to its first trial, |r| <= (1 - ALPHA)|r(w)|.

    Returns (start, steps), one entry per row: 1.0 for a row that takes the
    step, or None for a row whose prediction is rejected or whose system is
    singular; such a row starts from ``state``.
    """
    t_matrix = assemble(previous, state).kkt_matrix
    r = (1.0 / obj.t - 1.0 / previous.t) * previous.barrier_gradient(state)
    if obj.constraint is not None:
        r = np.concatenate([r, np.zeros(r.shape[:-1] + (1,))], axis=-1)
    dw, errors = newton_step(KktSystem(residual=r, kkt_matrix=t_matrix))
    ok = [i for i, e in enumerate(errors) if e is None]
    steps = [None] * len(errors)
    if not ok:
        return state, steps
    base, dw = (state, dw) if len(ok) == len(errors) else (state.take(ok), dw[ok])
    r0 = np.atleast_1d(_norms(residual(obj, base))).tolist()
    trial, rnorm = _trial_norm(obj, base, *_split_step(obj, dw), 1.0)
    took = [j for j, (rn, r0_j) in enumerate(zip(rnorm, r0))
            if rn <= (1.0 - ALPHA) * r0_j]
    if not took:
        return state, steps
    for j in took:
        steps[ok[j]] = 1.0
    if len(took) == len(errors):
        return trial, steps
    rest = [i for i, si in enumerate(steps) if si is None]
    return _in_order([([ok[j] for j in took], trial.take(took)),
                      (rest, state.take(rest))]), steps


def newton_solve(obj, state: SaddleState, eps: float = 1e-10,
                 max_iter: int = DEFAULT_MAX_ITER, callback=None, previous=None,
                 loose: float | None = None):
    """Damped Newton iteration until |r| <= eps: the one Newton loop.

    One iterate, or a stack of them (``SaddleState`` rows, one per channel of
    a stacked ``obj``) that moves through it in lockstep: each round
    assembles, solves and searches every row still iterating at once, and a
    row leaves by one exit when it converges or fails; no row's failure
    moves another.

    Returns (state, reports, errors), the lists aligned with the rows of
    ``state``: the final iterates, one NewtonReport per row, and per row
    None once the row met eps (or ``loose``) or the error that ended it, its
    one failure record: the SingularKktError of its step, or a SolverError
    "Newton stage at t=... failed: line search stagnated: ..." or "...: not
    converged after N iterations". Raises DomainError only for a start point
    outside the barrier domain. ``callback(k, state, r_norms, s)`` runs
    after each accepted step with the rows that accepted it (the one
    iterate, or a stack) and lists of their residual norms and step sizes;
    k is the same for all of them.

    With ``previous``, the stage objective at which ``state`` is central,
    each row starts from the start ``predict`` gives it instead, and a row
    that fails from a predicted start is solved once more from ``state``;
    the callback sees the steps of both solves. Each report records the
    start.

    With ``loose``, a row also leaves, converged, after a whole step (s = 1)
    whose Newton decrement sum_i |r_i dw_i|, over the residual r the step
    was assembled at, was at most ``loose``: an approximate centering, as
    in Boyd & Vandenberghe, Convex Optimization, §11.3.1. The decrement is
    in nats and does not change under (H, P) -> (c H, P / c^2), where |r|
    carries the units of P.
    """
    if previous is not None:
        return _from_prediction(previous, obj, state, dict(
            eps=eps, max_iter=max_iter, callback=callback, loose=loose))
    rnorm = np.atleast_1d(_norms(residual(obj, state))).tolist()
    if math.inf in rnorm:
        raise DomainError("a start point is outside the barrier domain")
    n = len(rnorm)
    reports = [NewtonReport(residual_norms=[rn]) for rn in rnorm]
    errors = [None] * n
    pos = list(range(n))  # input positions of the rows still iterating
    done = []  # (positions, final rows)

    def failed(why: str) -> SolverError:
        return SolverError(f"Newton stage at t={obj.t:g} failed: {why}")

    def leave(ends: list, *per_row) -> tuple:
        """The one exit of a row. ``ends`` holds per current row None (it
        stays), True (it converged) or the error that ends it; returns each
        of ``per_row`` narrowed to the rows that stay."""
        nonlocal state, pos, rnorm
        if ends.count(None) == len(ends):
            return per_row
        keep = [i for i, e in enumerate(ends) if e is None]
        for p, e in zip(pos, ends):
            errors[p] = None if e is True else e
        gone = [i for i, e in enumerate(ends) if e is not None]
        if keep:
            done.append(([pos[i] for i in gone], state.take(gone)))
            state = state.take(keep)
        else:
            done.append((pos, state))
        pos, rnorm = [pos[i] for i in keep], [rnorm[i] for i in keep]
        return tuple(x[keep] if isinstance(x, np.ndarray) else [x[i] for i in keep]
                     for x in per_row)

    k, centered = 0, [False] * n
    while True:
        # a row converges once |r| <= eps (a NaN residual has not) or once
        # ``loose`` centered it, and fails at the iteration cap
        cap = k == max_iter
        leave([True if rn <= eps or c else
               failed(f"not converged after {max_iter} iterations") if cap else None
               for rn, c in zip(rnorm, centered)])
        if not pos:
            break
        sys = assemble(obj, state)
        dw, step_errors = newton_step(sys)
        # the Newton decrement of each row, NaN for a row without a step
        dec = np.atleast_1d(np.abs(sys.residual * dw).sum(axis=-1)).tolist()
        dw, dec = leave(step_errors, dw, dec)
        if not pos:
            break
        r0 = rnorm
        s, state, rnorm = line_search(obj, state, dw, r0_norm=r0)
        k += 1
        s, dec = leave([failed(f"line search stagnated: s < {S_MIN:g}, |r|={r0_i:.3e}, "
                               f"last trial |r|={rn:.3e}") if math.isnan(si) else None
                        for si, r0_i, rn in zip(s, r0, rnorm)], s, dec)
        if not pos:
            break
        for p, si, rn in zip(pos, s, rnorm):
            reports[p].step_sizes.append(si)
            reports[p].residual_norms.append(rn)
        if callback is not None:
            callback(k, state, rnorm, s)
        centered = [loose is not None and si == 1.0 and d <= loose
                    for si, d in zip(s, dec)]
    return _in_order(done), reports, errors


def _from_prediction(previous, obj, state: SaddleState, knobs: dict):
    """``newton_solve`` from the rows' predicted starts, with the rows that
    fail from one solved again from ``state``."""
    start, steps = predict(previous, obj, state)
    final, reports, errors = newton_solve(obj, start, **knobs)
    redo = [i for i, (si, e) in enumerate(zip(steps, errors))
            if si is not None and e is not None]
    if redo:
        again, reports_2, errors_2 = newton_solve(
            obj, state if state.x.ndim == 1 else state.take(redo), **knobs)
        for i, rep, e in zip(redo, reports_2, errors_2):
            reports[i], errors[i], rep.rerun = rep, e, True
        keep = [i for i in range(len(steps)) if i not in redo]
        final = again if not keep else _in_order(
            [(keep, final.take(keep)), (redo, again)])
    for rep, si in zip(reports, steps):
        rep.predictor_step = si
    return final, reports, errors
