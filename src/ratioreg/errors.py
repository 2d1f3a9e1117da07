"""Exception types, input checks and JSON and CSV file I/O shared across the package.

Two failure families are distinguished so callers (and the CLI) can map
them to different exit codes: bad inputs versus numerical breakdown.

Every number a caller hands in goes through one of three checkers,
``finite_real``, ``positive_real`` and ``whole_number``, and every array
of numbers through ``finite_array``.  Each raises InputError naming the
value and returns it normalized to a float, an int or a float array; a
bool, a string, a non-finite value or (for a count) a fraction is
rejected, never coerced or truncated.
"""

from __future__ import annotations

import csv
import json
import math
import numbers

import numpy as np


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
    # The exact-type test spares plain floats and ints the slow ABC check.
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


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


def whole_number(value, name: str, minimum: int | None = 1) -> int:
    """``value`` as an int, if it is an integral real number >= ``minimum`` and not a bool.

    2.0 is taken as 2; 2.5 is rejected, never truncated.  ``minimum=None``
    sets no lower bound.
    """
    number = _as_float(value)
    if not (math.isfinite(number) and number.is_integer()
            and (minimum is None or number >= minimum)):
        bound = "" if minimum is None else f" of at least {minimum}"
        raise InputError(f"{name} must be a whole number{bound}, got {value!r}")
    return int(value)


def finite_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, if every entry is a finite real number and not a bool.

    An ndarray is judged by its dtype, and a float64 one is returned as it
    is.  Nested lists and tuples are judged by one entry of each type
    (``is_number`` depends on the type alone), so the cost per entry is a
    type lookup.
    """
    numeric = type(value) is np.ndarray and value.dtype.kind in "fiu"
    level, samples = [] if numeric else [value], {}
    while level:  # one nesting level at a time
        samples.update(((type(entry), getattr(entry, "dtype", None)), entry)
                       for entry in level)
        level = [item for entry in level if type(entry) in (list, tuple) for item in entry]
    for (kind, dtype), entry in samples.items():
        if not (kind in (list, tuple) or (is_number(entry) if dtype is None
                                          else dtype.kind in "fiu")):
            raise InputError(f"{name} holds an entry that is not a number: {entry!r}")
    try:
        array = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not an array of floats: {exc}") from exc
    if not np.isfinite(array).all():
        raise InputError(f"{name} holds a non-finite entry")
    return array


def load_json(path, what: str):
    """The JSON value in the file at ``path``.

    A file that is not UTF-8 JSON, or that nests too deeply or holds an
    integer too long to parse, is an InputError; one that cannot be read
    stays an OSError.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # undecodable UTF-8 and JSON included
            raise InputError(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc


def save_json(data, path) -> None:
    """Write ``data`` to ``path`` as JSON with sorted keys, indented, plus a final newline."""
    with open(path, "w") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)
        handle.write("\n")


def save_csv(rows, path) -> None:
    """Write ``rows`` to ``path`` as CSV with "\n" line ends.

    A float is written as its repr and None as an empty field; any other
    entry, such as a header name or a count, is written as it is.
    """
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [repr(float(v)) if isinstance(v, float) else "" if v is None else v for v in row]
            for row in rows)
