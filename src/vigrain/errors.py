"""Exception types shared across the engine."""


class VigrainError(Exception):
    """Base class for all engine errors.

    run_simulation sets step and t on an error raised by a step: the
    1-based index of that step and the time it started from.
    """

    step: int | None = None
    t: float | None = None


class SingularGeometryError(VigrainError):
    """Two particle centers coincide; the contact normal is undefined."""


class StaleNeighborListError(VigrainError):
    """A neighbor list was used after its displacement guard was violated."""


class SolverFailureError(VigrainError):
    """An iterative solve did not reach its tolerance.

    Carries the final residual norm so callers can report or retry.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IndefiniteOperatorError(SolverFailureError):
    """CG detected non-positive curvature: the operator is not SPD."""


class StepFailureError(SolverFailureError):
    """Newton iteration for an implicit step did not converge."""


class NonFiniteStateError(SolverFailureError):
    """A solve or the neighbour search met a NaN or infinite value."""


class ConfigError(VigrainError):
    """A run configuration document is malformed or out of range."""
