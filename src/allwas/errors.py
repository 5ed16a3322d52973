"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, anything else -> 4.
"""


class AllwasError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AllwasError):
    """Invalid or inconsistent configuration."""


class DataError(AllwasError):
    """Corpus ingestion or data validation failure."""


class ShapeError(AllwasError):
    """Dimension or shape mismatch between numeric objects.

    Only the formatted message is kept, so the error crosses a pickle (the
    sweep's worker processes) with its type and text unchanged."""

    def __init__(self, message: str, expected=None, actual=None):
        if expected is not None or actual is not None:
            message = f"{message} (expected {expected}, got {actual})"
        super().__init__(message)
