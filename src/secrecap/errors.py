"""Exception types shared across the solver."""


class DomainError(ValueError):
    """A point left the barrier domain (R or K not strictly positive definite,
    or a linear power cap violated). The line search treats this as an
    infinite residual."""


class LineSearchError(RuntimeError):
    """Backtracking shrank the step below the stagnation floor."""


class SolverError(RuntimeError):
    """Outer solve failed. Carries the partial convergence trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class SingularKktError(SolverError):
    """KKT matrix numerically singular. At interior points this contradicts
    the non-singularity guarantee and indicates a bug or extreme
    ill-conditioning; diagnostics are attached to the message. An outer
    solve attaches the convergence trace recorded before the failure."""


class BracketError(ValueError):
    """Dual power-minimization bracket does not contain the target rate."""
