"""Shared fixtures and helpers for the test suite, and the dense oracles
that only the tests use."""

from functools import lru_cache

import numpy as np
import pytest

from secrecap import ChannelPair
from secrecap.matcalc import _vech_indices, chol_logdet, vech_len

# Hard non-degraded 2x2 instance used throughout: the difference Gram matrix
# W1 - W2 has one positive and one negative eigenvalue, {0.395, -3.293}.
DEMO_H1 = np.array([[0.77, -0.30], [-0.32, -0.64]])
DEMO_H2 = np.array([[0.54, -0.11], [-0.93, -1.71]])


@pytest.fixture
def demo_channel():
    return ChannelPair(DEMO_H1, DEMO_H2)


def random_channel(rng, m, n1, n2):
    return ChannelPair(rng.standard_normal((n1, m)), rng.standard_normal((n2, m)))


def random_spd(rng, m, trace=None):
    """Random symmetric positive definite matrix, optionally trace-normalized."""
    a = rng.standard_normal((m, m))
    s = a @ a.T + 0.1 * np.eye(m)
    if trace is not None:
        s *= trace / np.trace(s)
    return s


def random_feasible_k21(rng, n1, n2, max_norm=0.95):
    """Random cross block with spectral norm strictly below 1."""
    b = rng.standard_normal((n2, n1))
    target = max_norm * rng.uniform(0.1, 1.0)
    return b * (target / np.linalg.norm(b, 2))


def rel_err_inf(approx, exact):
    """Infinity-norm relative error, guarded against a zero reference."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(np.max(np.abs(exact)), 1e-30)
    return np.max(np.abs(approx - exact)) / scale


# -- dense oracles ----------------------------------------------------------

_MAX_DIM = 64


@lru_cache(maxsize=None)
def duplication_matrix(m: int) -> np.ndarray:
    """0/1 matrix D of shape (m^2, m(m+1)/2) with D @ vech(S) == vec(S)
    for every symmetric S."""
    if not 1 <= m <= _MAX_DIM:
        raise ValueError(f"dimension {m} outside supported range 1..{_MAX_DIM}")
    rows, cols = _vech_indices(m)
    half_index = np.zeros((m, m), dtype=int)
    half_index[rows, cols] = np.arange(rows.size)
    half_index[cols, rows] = half_index[rows, cols]
    d = np.zeros((m * m, vech_len(m)))
    for c in range(m):
        for r in range(m):
            d[c * m + r, half_index[r, c]] = 1.0
    d.flags.writeable = False
    return d


@lru_cache(maxsize=None)
def reduced_duplication_matrix(n1: int, n2: int) -> np.ndarray:
    """0/1 matrix Dt of shape ((n1+n2)^2, n1*n2) mapping vec(dB) of an
    n2 x n1 block B to vec of the hollow symmetric embedding

        [[0,  B'],
         [B,  0 ]].

    Equivalently the duplication matrix of dimension n1+n2 restricted to the
    columns addressing the off-diagonal block.
    """
    if not (1 <= n1 <= _MAX_DIM and 1 <= n2 <= _MAX_DIM):
        raise ValueError(f"dimensions ({n1}, {n2}) outside supported range")
    n = n1 + n2
    dt = np.zeros((n * n, n1 * n2))
    for j in range(n1):          # column of B
        for i in range(n2):      # row of B
            col = j * n2 + i     # column-major index into vec(B)
            dt[j * n + (n1 + i), col] = 1.0
            dt[(n1 + i) * n + j, col] = 1.0
    dt.flags.writeable = False
    return dt


def logdet_K(fac) -> float:
    """ln|K| from the factors of a barrier objective; 0 without a K block,
    which has no -(1/t) ln|K| term."""
    return 0.0 if fac.K21 is None else chol_logdet(fac.cf_K)


def value_ft(obj, state):
    """The barrier objective f_t = f + (1/t)(ln|R| - ln|K| + sum ln s) of
    ``obj`` at ``state`` from its factors, s the slacks of its inequality
    rows; DomainError outside the barrier domain."""
    fac, t = obj._inside(state), obj.t
    v = fac.value_f() + (chol_logdet(fac.cf_R) - logdet_K(fac)) / t
    if obj.limits:
        for _, _, ln_s in obj._limit_blocks(np.log(fac.slack)):
            v += ln_s.sum() / t
    return v
