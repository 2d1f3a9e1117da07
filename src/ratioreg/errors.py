"""Exception types shared across the package.

Two failure families are distinguished so callers (and the CLI) can map
them to different exit codes: bad inputs versus numerical breakdown.
"""

from __future__ import annotations

import json
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
