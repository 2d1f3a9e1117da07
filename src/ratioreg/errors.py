"""Exception types and the input checks shared across the package.

Two failure families are distinguished so callers (and the CLI) can map
them to different exit codes: bad inputs versus numerical breakdown.

Every number a caller hands in goes through one of three checkers,
``finite_real``, ``positive_real`` and ``whole_number``.  Each raises
InputError naming the value and returns it normalized to a float or an
int; a bool, a string, a non-finite value or (for a count) a fraction is
rejected, never coerced or truncated.
"""

from __future__ import annotations

import json
import math
import numbers


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra step breaks down (singular or
    non-finite systems).

    Carries the regularization strength and the smallest eigenvalue
    estimate of the offending system when known, so the failure is
    diagnosable from the message alone.
    """

    def __init__(self, message: str, *, lam: float | None = None,
                 smallest_eigenvalue: float | None = None):
        details = []
        if lam is not None:
            details.append(f"lambda={lam!r}")
        if smallest_eigenvalue is not None:
            details.append(f"smallest eigenvalue estimate={smallest_eigenvalue!r}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.lam = lam
        self.smallest_eigenvalue = smallest_eigenvalue


def require_keys(data, keys, what: str) -> None:
    """Raise InputError unless ``data`` is a dict holding every key in ``keys``."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InputError(f"{what} is missing {', '.join(map(repr, missing))}")


def is_number(value) -> bool:
    """True for a real number that is not a bool (JSON true and false are not numbers)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(value) -> float:
    """``value`` as a float; nan unless it is a real number, not a bool, within float range."""
    if not is_number(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def finite_real(value, name: str) -> float:
    """``value`` as a float, if it is a finite real number and not a bool."""
    number = _as_float(value)
    if not math.isfinite(number):
        raise InputError(f"{name} must be a finite real number, got {value!r}")
    return number


def positive_real(value, name: str) -> float:
    """``value`` as a float, if it is a finite real number above 0 and not a bool."""
    number = _as_float(value)
    if not (math.isfinite(number) and number > 0.0):
        raise InputError(f"{name} must be finite and positive, got {value!r}")
    return number


def whole_number(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int, if it is an integral real number >= ``minimum`` and not a bool.

    2.0 is taken as 2; 2.5 is rejected, never truncated.
    """
    number = _as_float(value)
    if not (math.isfinite(number) and number.is_integer() and number >= minimum):
        raise InputError(f"{name} must be a whole number of at least {minimum}, got {value!r}")
    return int(value)


def load_json(path, what: str):
    """The JSON value in the file at ``path``.

    A file that is not UTF-8 JSON is an InputError; one that cannot be
    read stays an OSError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc
