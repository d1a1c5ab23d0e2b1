"""Wiretap channel model: gain matrices, Gram matrices, degradedness, the
transmit covariance, the solver's primal-dual iterate and its standard start.

All types are treated as immutable after construction and are safe to share
between concurrent solver runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .matcalc import psd_sqrt, sym, vech

__all__ = [
    "ChannelPair",
    "TransmitCovariance",
    "SaddleState",
    "Degradedness",
    "classify_degraded",
    "initial_point",
]


class Degradedness(enum.Enum):
    DEGRADED = "degraded"
    REVERSELY_DEGRADED = "reversely_degraded"
    INDEFINITE = "indefinite"


@dataclass
class ChannelPair:
    """Legitimate (H1: n1 x m) and eavesdropper (H2: n2 x m) channel matrices
    with derived Gram matrices W1 = H1'H1, W2 = H2'H2, their symmetric square
    roots, which every objective evaluation reuses, and the row-stacked
    H = [H1; H2]."""

    H1: np.ndarray
    H2: np.ndarray
    W1: np.ndarray = field(init=False, repr=False)
    W2: np.ndarray = field(init=False, repr=False)
    sqrt_W1: np.ndarray = field(init=False, repr=False)
    sqrt_W2: np.ndarray = field(init=False, repr=False)
    Hstack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.H1 = np.atleast_2d(np.asarray(self.H1, dtype=float))
        self.H2 = np.atleast_2d(np.asarray(self.H2, dtype=float))
        if not (np.all(np.isfinite(self.H1)) and np.all(np.isfinite(self.H2))):
            raise ValueError("channel matrices must be finite")
        if self.H1.shape[1] != self.H2.shape[1]:
            raise ValueError(
                "column mismatch: H1 has %d columns, H2 has %d"
                % (self.H1.shape[1], self.H2.shape[1])
            )
        self.W1 = sym(self.H1.T @ self.H1)
        self.W2 = sym(self.H2.T @ self.H2)
        self.sqrt_W1 = psd_sqrt(self.W1)
        self.sqrt_W2 = psd_sqrt(self.W2)
        self.Hstack = np.vstack([self.H1, self.H2])

    @property
    def m(self) -> int:
        return self.H1.shape[1]

    @property
    def n1(self) -> int:
        return self.H1.shape[0]

    @property
    def n2(self) -> int:
        return self.H2.shape[0]


@dataclass
class TransmitCovariance:
    """Transmit covariance matrix with its power budget (noise-normalized)."""

    R: np.ndarray
    power: float

    def __post_init__(self):
        self.R = sym(np.atleast_2d(np.asarray(self.R, dtype=float)))


@dataclass
class SaddleState:
    """Primal-dual iterate: x = vech(R), y = vec(K21), scalar dual lam.

    y is empty in the eavesdropper-free (degraded) reduction; lam is unused
    when no equality constraint is active.

    A stack of iterates, one per channel of a stacked objective, gives x and
    y a leading axis and lam one entry per row; ``rows`` names the
    objective's channel of each row (None: row i is channel i). ``cache``
    is what an objective keeps for this iterate, as (objective, value);
    ``take`` and ``concat`` carry it along.
    """

    x: np.ndarray
    y: np.ndarray
    lam: float | np.ndarray = 0.0
    rows: np.ndarray | None = None
    cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([self.x, self.y], axis=-1)

    def stepped(self, dz: np.ndarray, dlam, s: float) -> "SaddleState":
        nx = self.x.shape[-1]
        z = self.z + s * dz
        return SaddleState(x=z[..., :nx], y=z[..., nx:], lam=self.lam + s * dlam,
                           rows=self.rows)

    def take(self, idx) -> "SaddleState":
        """The rows at positions ``idx`` of a stack."""
        idx = np.asarray(idx)
        rows = np.arange(len(self.x)) if self.rows is None else self.rows
        cache = self.cache and (self.cache[0], self.cache[1].take(idx))
        return SaddleState(self.x[idx], self.y[idx], self.lam[idx], rows[idx], cache)

    @staticmethod
    def concat(parts: list) -> "SaddleState":
        """One stack of the rows of ``parts``, in order."""
        if len(parts) == 1:
            return parts[0]
        owner = parts[0].cache and parts[0].cache[0]
        cache = None
        if owner is not None and all(p.cache and p.cache[0] is owner for p in parts):
            cache = (owner, type(parts[0].cache[1]).concat([p.cache[1] for p in parts]))
        return SaddleState(
            np.concatenate([p.x for p in parts]), np.concatenate([p.y for p in parts]),
            np.concatenate([p.lam for p in parts]),
            np.concatenate([np.arange(len(p.x)) if p.rows is None else p.rows
                            for p in parts]), cache)

    @staticmethod
    def stack(states: list) -> "SaddleState":
        """One stack of the single iterates ``states``."""
        return SaddleState(np.stack([s.x for s in states]), np.stack([s.y for s in states]),
                           np.array([s.lam for s in states], dtype=float))


def classify_degraded(ch: ChannelPair):
    """Classify the channel by the eigenvalues of W1 - W2.

    Returns (Degradedness, eigenvalues). With the relative tolerance
    tol = 1e-9 (1 + |W1|_2 + |W2|_2), degraded when all eigenvalues are
    >= -tol, reversely degraded when all are <= tol, indefinite otherwise.
    A zero difference counts as degraded.
    """
    tol = 1e-9 * (1.0 + np.linalg.norm(ch.W1, 2) + np.linalg.norm(ch.W2, 2))
    eigs = np.linalg.eigvalsh(sym(ch.W1 - ch.W2))
    if eigs.min() >= -tol:
        return Degradedness.DEGRADED, eigs
    if eigs.max() <= tol:
        return Degradedness.REVERSELY_DEGRADED, eigs
    return Degradedness.INDEFINITE, eigs


def initial_point(ch: ChannelPair, power: float) -> SaddleState:
    """Standard interior start: R = (P/m) I, K21 = 0, lam = 0."""
    if power <= 0:
        raise ValueError("power budget must be positive")
    m = ch.m
    x0 = vech(np.eye(m) * (power / m))
    y0 = np.zeros(ch.n1 * ch.n2)
    return SaddleState(x=x0, y=y0, lam=0.0)
