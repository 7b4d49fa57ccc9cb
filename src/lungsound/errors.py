"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4, WorkerError -> 5.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class DataError(ValueError):
    """Input data is malformed, missing, or violates a dataset contract."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class WorkerError(RuntimeError):
    """A pool worker process died (killed by a signal, or exited) while running a job."""


class UnsupportedMethodError(RuntimeError):
    """The requested method does not apply to the given model."""
