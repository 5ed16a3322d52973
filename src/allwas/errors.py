"""Exception types shared across the toolkit, and the three input checks
that raise them: ``check_keys`` (a config section's keys; ``config_from``
builds a config dataclass after it), ``check_types`` (a dataclass's int,
number and string fields) and ``check_simplex`` (probability rows). Every
layer imports this module, so it imports no other module of the package.

The CLI maps the exceptions onto process exit codes: ConfigError -> 2,
DataError -> 3, anything else -> 4.
"""

import numpy as np

# How far a probability row's entries may fall below 0, and its sum miss 1.
_SIMPLEX_TOL = 1e-9


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


def check_keys(knobs: dict, known, name: str) -> None:
    """Raise a ConfigError unless the config section ``name`` is a dict whose
    keys are all in ``known``; the error lists the unknown keys."""
    if not isinstance(knobs, dict):
        raise ConfigError(f"{name} must be a JSON object (got {knobs!r})")
    unknown = sorted(set(knobs) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")


def config_from(cls, knobs: dict, name: str):
    """``cls(**knobs)`` for a config dataclass, once ``check_keys`` finds
    that every key names one of its fields."""
    check_keys(knobs, cls.__dataclass_fields__, name)
    return cls(**knobs)


# numpy scalars count; a bool is neither an int nor a number here.
def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def check_types(cls, values: dict, prefix: str = "") -> None:
    """Raise a ConfigError unless each of ``values`` that names an ``int``,
    ``float`` or ``str`` field of the dataclass ``cls`` holds that kind, as
    the field's annotation says: an int (not a bool), a number (an int or a
    float, not a bool) or a string; a field annotated ``... | None`` may
    also hold None. ``prefix`` leads each message."""
    kinds = {"int": (_is_int, "an int"), "float": (_is_real, "a number"),
             "str": (lambda v: isinstance(v, str), "a string")}
    for name, value in values.items():
        # Annotations are strings: the modules use postponed evaluation.
        allowed = cls.__dataclass_fields__[name].type.split(" | ")
        kind = next((k for k in allowed if k in kinds), None)
        if kind is None or value is None and "None" in allowed:
            continue
        check, noun = kinds[kind]
        if not check(value):
            null = " or null" if "None" in allowed else ""
            raise ConfigError(f"{prefix}{name} must be {noun}{null} (got {value!r})")


def check_simplex(rows, error: type, noun: str) -> None:
    """Raise ``error`` unless each row of ``rows`` (..., n) is a probability
    vector: no entry below -1e-9 and a sum within 1e-9 of 1. NaN fails."""
    rows = np.asarray(rows, dtype=np.float64)
    # Written as "not (valid)", so NaN fails too.
    if not (np.all(rows >= -_SIMPLEX_TOL)
            and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= _SIMPLEX_TOL)):
        raise error(f"{noun} must be nonnegative and sum to 1")
