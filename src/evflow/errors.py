"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError and OutputError -> 2,
InputFormatError (and subclasses) -> 3, EvaluationError -> 4,
WorkerError -> 5.
"""


class EvflowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EvflowError):
    """A run or scenario configuration is missing, malformed, or inconsistent."""


class OutputError(EvflowError):
    """An output path given to the program cannot be created or written."""


class InputFormatError(EvflowError):
    """An input stream or file violates its declared format."""


class EventBoundsError(InputFormatError):
    """An event references a pixel outside the sensor bounds."""


class EventOrderError(InputFormatError):
    """Event timestamps are not non-decreasing."""


class InsufficientDataError(EvflowError):
    """Too few or degenerate correspondences for a rigid-motion fit."""


class DegenerateConsensusError(EvflowError):
    """RANSAC could not find an inlier set above the configured fraction."""


class EvaluationError(EvflowError):
    """Estimate and ground-truth streams cannot be compared."""


class WorkerError(EvflowError):
    """A worker process could not be started or died without its results."""
