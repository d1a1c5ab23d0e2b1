"""Secrecy capacity of Gaussian MIMO wiretap channels.

Computes a globally optimal transmit covariance by solving the convex-concave
saddle-point reformulation of the secrecy rate maximization with a
barrier-wrapped primal-dual Newton method, including a degraded-channel fast
path, per-antenna power constraints and the dual power-minimization problem.
"""

from .barrier_solver import (
    PerAntennaBudget,
    SaddleSolution,
    SolverConfig,
    TraceRecord,
    gap_bound,
    solve,
    solve_degraded,
    solve_minimax,
)
from .channel import (
    ChannelPair,
    Degradedness,
    SaddleState,
    TransmitCovariance,
    classify_degraded,
    initial_point,
)
from .errors import (
    BracketError,
    DomainError,
    LineSearchError,
    SingularKktError,
    SolverError,
)
from .objective import (
    BarrierObjective,
    DegradedBarrierObjective,
    PerAntennaBarrierObjective,
    RateBarrierObjective,
    minimax_objective,
    secrecy_rate,
)
from .variants import DualTarget, solve_dual, solve_per_antenna

__version__ = "0.1.0"

__all__ = [
    "BarrierObjective",
    "BracketError",
    "ChannelPair",
    "Degradedness",
    "DegradedBarrierObjective",
    "DomainError",
    "DualTarget",
    "LineSearchError",
    "PerAntennaBarrierObjective",
    "PerAntennaBudget",
    "RateBarrierObjective",
    "SaddleSolution",
    "SaddleState",
    "SingularKktError",
    "SolverConfig",
    "SolverError",
    "TraceRecord",
    "TransmitCovariance",
    "classify_degraded",
    "gap_bound",
    "initial_point",
    "minimax_objective",
    "secrecy_rate",
    "solve",
    "solve_degraded",
    "solve_dual",
    "solve_minimax",
    "solve_per_antenna",
]
