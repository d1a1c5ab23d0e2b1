"""How fast the host runs, from a fixed piece of reference work.

A shared 2-vCPU Intel Xeon cloud host, as measured for this benchmark,
switches between a fast and a slow state (a sample of the reference work
takes about 1.8 or 3.2 ms) every 50-300 ms, and the share of time spent slow
changes over minutes, moving the median time of an operation by up to 40%
between sets of runs. The reference
work has the shape of a Newton step of the solvers (small Cholesky
factorizations and solves, Kronecker products, one LU of KKT size, and the
Python calls around them) but calls nothing in ``secrecap``, so a change to
the package cannot change its time. Timed in samples spread evenly over a
run, the mean sample time over ``REFERENCE_MS`` is the factor by which the
host was slower than the reference speed during that run.

The two worker threads of a batch do not follow these samples, which can
only be taken between batches. What delays a batch is the time the
hypervisor deschedules the virtual CPUs (steal time), so the batch subtracts
that instead; ``stolen_s`` reads it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy import linalg as sla

SHARE = 0.05          # share of a run spent on reference samples
REFERENCE_MS = 2.0    # one sample in the host's fast state
BLOCK = 30            # samples timed right after set-up
_SEED = 20261107


def _inputs():
    rng = np.random.default_rng(_SEED)

    def spd(n):
        a = rng.standard_normal((n, n))
        return a @ a.T + n * np.eye(n)

    small = [spd(n) for n in (3, 4, 6) * 12]
    return small, spd(110)


def stolen_s() -> float:
    """Steal time of this machine so far, in seconds per CPU; 0 where
    ``/proc/stat`` does not report it."""
    try:
        with open("/proc/stat") as fh:
            lines = fh.read().splitlines()
        total = int(lines[0].split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3].isdigit())
    return total / os.sysconf("SC_CLK_TCK") / max(cpus, 1)


class _Work:
    def __init__(self):
        self.small, self.kkt = _inputs()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for a in self.small:
            cf = sla.cho_factor(a, lower=True, check_finite=False)
            inv = sla.cho_solve(cf, np.eye(a.shape[0]), check_finite=False)
            np.kron(inv, a)
        sla.lu_factor(self.kkt, check_finite=False)
        return time.perf_counter() - t0


def block_slowdown() -> float:
    """Slowdown from ``BLOCK`` consecutive samples, for timing a set-up."""
    work = _Work()
    return statistics.mean(1e3 * work.seconds() for _ in range(BLOCK)) / REFERENCE_MS


class HostSpeed:
    """Samples taken during a run: ``keep_up`` spends ``SHARE`` of the time
    since construction on them, as evenly as the caller's calls allow."""

    def __init__(self):
        self._work = _Work()
        self.samples: list[float] = []   # ms
        self._spent = 0.0
        self._start = time.perf_counter()

    def keep_up(self) -> None:
        while self._spent < SHARE * (time.perf_counter() - self._start):
            seconds = self._work.seconds()
            self._spent += seconds
            self.samples.append(1e3 * seconds)

    def slowdown(self) -> float:
        """Mean sample time over the reference time: 1.3 means the host ran
        30% slower than the reference speed."""
        return statistics.mean(self.samples) / REFERENCE_MS
