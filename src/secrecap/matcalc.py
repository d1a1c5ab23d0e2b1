"""Matrix-calculus primitives for derivative assembly in reduced coordinates.

Conventions (frozen, all index maps depend on them):
  * vec is column-major: ``vec(A) = A.ravel(order="F")``.
  * vech stacks the lower triangle column by column, diagonal included,
    so for S = [[a, b], [b, c]] we get vech(S) = [a, b, c].

The solver gathers the duplication-matrix products of its derivatives from
the cached index arrays of :func:`sandwich_indices`; the dense 0/1 matrices
are the tests' oracle for those formulas.

This is the one module that binds LAPACK: the Cholesky helpers and the
``getrf``/``getrs`` pair of the Newton step call the routines behind scipy's
cho_factor/cho_solve and lu_factor/lu_solve, fetched once and called without
the per-call wrapper overhead (same routines, same bits).

Stacks: ``unvech``, ``sym``, ``kron``, ``psd_sqrt``, ``noise_matrix``,
``chol_solve``, ``chol_logdet`` and ``chol_inv`` also take a stack of
matrices (a leading axis) and treat each slice as they treat one matrix, bit
for bit. ``chol_rows`` is the stacked ``chol``. LAPACK runs once per slice
and writes in place into a stack that the kernel allocates with column-major
slices, the layout LAPACK returns for one matrix: the BLAS products that
consume the slices round differently for the two layouts at some sizes.
Each input is copied into that stack once and never overwritten, because
callers reuse it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DomainError

__all__ = [
    "vec",
    "vech",
    "unvech",
    "vech_len",
    "vech_dim",
    "vech_diag_indices",
    "sandwich_indices",
    "kron",
    "sym",
    "identity",
    "psd_sqrt",
    "noise_matrix",
    "chol",
    "chol_rows",
    "chol_solve",
    "chol_logdet",
    "chol_inv",
    "getrf",
    "getrs",
]

_potrf, _potrs, getrf, getrs = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs"), dtype=np.float64)


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity matrix, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def sym(a: np.ndarray) -> np.ndarray:
    """Exact symmetrization, (A + A') / 2."""
    return 0.5 * (a + a.mT)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(a).ravel(order="F")


def vech_len(m: int) -> int:
    return m * (m + 1) // 2


@lru_cache(maxsize=None)
def vech_dim(length: int) -> int:
    """Matrix dimension m with m(m+1)/2 == length."""
    m = int(round((np.sqrt(8 * length + 1) - 1) / 2))
    if vech_len(m) != length:
        raise ValueError(f"{length} is not a triangular number m(m+1)/2")
    return m


@lru_cache(maxsize=None)
def _vech_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Upper-triangle indices enumerate (r, c) row-major with r <= c; swapping
    # the two arrays walks the lower triangle column by column.
    iu = np.triu_indices(m)
    return iu[1].copy(), iu[0].copy()


def vech(s: np.ndarray) -> np.ndarray:
    """Half-vectorization: lower-triangular entries, column-wise."""
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"vech needs a square matrix, got shape {s.shape}")
    rows, cols = _vech_indices(s.shape[0])
    return s[rows, cols].copy()


def unvech(v: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric matrix S with vech(S) == v (over the last axis)."""
    v = np.asarray(v)
    m = vech_dim(v.shape[-1])
    rows, cols = _vech_indices(m)
    s = np.zeros(v.shape[:-1] + (m, m), dtype=float)
    s[..., rows, cols] = v
    s[..., cols, rows] = v
    return s


@lru_cache(maxsize=None)
def vech_diag_indices(m: int) -> np.ndarray:
    """Positions of the diagonal entries (i, i) inside vech order."""
    rows, cols = _vech_indices(m)
    return np.flatnonzero(rows == cols)


SandwichIndex = namedtuple(
    "SandwichIndex", "grad grad_weight xx xx_weight xy xy_weight k21_transpose")


@lru_cache(maxsize=None)
def sandwich_indices(m: int, n1: int, n2: int) -> SandwichIndex:
    """Flat (C-order) gather indices for the duplication-matrix products of
    the Newton derivatives. With D the duplication matrix of dimension m
    (D vech(S) = vec(S)), Dt that of dimension n1+n2 restricted to the
    columns of the off-diagonal block, vech coordinate p <-> (i, j) of
    weight w_p (1/2 if i == j, else 1), y coordinate q <-> the entry
    (u, v) = (n1 + r, c) of K for K21[r, c], and exactly symmetric S and A:

      * D' vec S = 2 w_p S[i,j] and Dt' vec S = 2 S[u,v] (``grad``, over the
        raveled S_R and S_K);
      * (D'(A (x) A) D)_pq = 2 w_p w_q (X + Y), X = A[i,k] A[j,l],
        Y = A[i,l] A[j,k], q <-> (k, l); D'(B (x) B) Dt likewise with
        (k, l) = (u, v), w_q = 1 (``xx`` on three stacked m x m matrices,
        ``xy`` on one m x (n1+n2) matrix, as (factor, [matrix,] X/Y, p, q));
      * Dt'(A (x) A) Dt = 2 (kron(A11, A22) + kron(A12, A21)[:, k21_transpose]).

    Each is bit for bit the 0/1 product, which adds zeros and S[i,j] + S[j,i]
    or X + Y twice. n1 = n2 = 0 drops the y coordinates.
    """
    n = n1 + n2
    i, j = _vech_indices(m)
    w = np.where(i == j, 0.5, 1.0)
    c, r = np.divmod(np.arange(n1 * n2), n2)  # y = vec(K21), K21[r, c]
    u, v = n1 + r, c

    def factors(k, l, cols):  # (A[i,k], A[i,l]) and (A[j,l], A[j,k])
        ii, jj = i[:, None] * cols, j[:, None] * cols
        return np.array([[ii + k, ii + l], [jj + l, jj + k]])

    xx = factors(i, j, m)[:, None] + m * m * np.arange(3)[:, None, None, None]
    return SandwichIndex(
        np.concatenate([i * m + j, m * m + u * n + v]),
        np.concatenate([2.0 * w, np.full(u.size, 2.0)]),
        xx, 2.0 * np.outer(w, w), factors(u, v, n), 2.0 * w[:, None], r * n1 + c)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices. With column-major vec this satisfies
    vec(B X A') == (A (x) B) vec(X) and tr(ABCD) == vec(D)'(A (x) C') vec(B').

    Built as a broadcast outer product, so every entry is the single product
    a[i, j] * b[k, l], exactly as ``np.kron`` computes it, at a fraction of
    its call overhead."""
    a = np.asarray(a)
    b = np.asarray(b)
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    if a.ndim == 2:
        return (a.reshape(p, 1, q, 1) * b.reshape(r, 1, s)).reshape(p * r, q * s)
    lead = a.shape[:-2]
    return (a.reshape(lead + (p, 1, q, 1)) * b.reshape(lead + (1, r, 1, s))).reshape(
        lead + (p * r, q * s))


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix, which must be
    exactly symmetric (``eigh`` reads only its lower triangle).

    Small negative eigenvalues from rounding are clipped to zero.
    """
    w, v = np.linalg.eigh(s)
    return sym((v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.mT)


def noise_matrix(k21: np.ndarray) -> np.ndarray:
    """Noise covariance K = [[I, K21'], [K21, I]] of the n2 x n1 cross block."""
    n2, n1 = k21.shape[-2:]
    k = identity(n1 + n2) + np.zeros(k21.shape[:-2] + (n1 + n2, n1 + n2))
    k[..., n1:, :n1] = k21
    k[..., :n1, n1:] = k21.mT
    return k


def chol(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix (upper triangle left
    unreferenced) or DomainError naming ``what``."""
    c, info = _potrf(a, lower=1, clean=0)
    if info > 0:
        raise DomainError(f"{what} is not strictly positive definite")
    return c


def _stack_like(a: np.ndarray, n: int) -> np.ndarray:
    """A copy of ``a``, broadcast to a stack of ``n`` slices, each one
    column-major (Fortran-contiguous) so LAPACK works on it in place."""
    out = np.empty((n,) + a.shape[:-3:-1]).mT
    out[...] = a
    return out


def chol_rows(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lower Cholesky factors of a stack of symmetric matrices and the
    positions of the slices that are not strictly positive definite, whose
    factors are undefined; for one matrix, its factor and [0] if it is not
    strictly positive definite."""
    if a.ndim == 2:
        c, info = _potrf(a, lower=1, clean=0)
        return c, [0] if info > 0 else []
    c, bad = _stack_like(a, len(a)), []
    for i in range(len(c)):
        if _potrf(c[i], lower=1, clean=0, overwrite_a=1)[1] > 0:
            bad.append(i)
    return c, bad


def chol_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{-1} b from the lower Cholesky factor ``c`` of A; for a stack of
    factors, per slice, with one ``b`` for all or a stack of them."""
    if c.ndim == 2:
        return _potrs(c, b, lower=1)[0]
    x = _stack_like(b, len(c))
    for i in range(len(c)):
        _potrs(c[i], x[i], lower=1, overwrite_b=1)
    return x


def chol_logdet(c: np.ndarray):
    """ln|A| from the lower Cholesky factor ``c`` of A; an array of them for
    a stack."""
    if c.ndim == 2:
        return 2.0 * float(np.log(c.diagonal()).sum())
    return 2.0 * np.log(c.diagonal(0, -2, -1)).sum(axis=-1)


def chol_inv(c: np.ndarray) -> np.ndarray:
    """A^{-1}, exactly symmetric, from the lower Cholesky factor ``c`` of A."""
    return sym(chol_solve(c, identity(c.shape[-1])))
