"""Kernels, sample containers, and Gram-system assembly.

Everything downstream works with two finite samples: ``xp`` drawn from the
reference distribution (the denominator of the density ratio) and ``xq``
drawn from the target distribution (the numerator).  This module builds
the dense kernel matrix over ``xp`` together with the cross-sample vector

    f_bar[i] = (n / m) * sum_j k(x_i, x'_j)

that acts as the right-hand side of every estimator in the package.

Memory: ``kernel_matrix`` allocates its output and, for points of more
than one coordinate, one more array of the same shape; no (a, b, d)
array of differences.  ``assemble_gram`` holds the n x n kernel matrix
plus one row block of the n x m cross kernel, whose row sums give f_bar.
A block holds about ``_BLOCK_ELEMENTS`` kernel values (8 MB); the same
budget sizes the row blocks of ``estimator.evaluate_batch``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError, is_number, load_json, require_keys

KNOWN_FAMILIES = ("gaussian_plus_one", "gaussian", "custom_ref")

# Families for which k(x, y) = offset + exp(-|x - y|^2 / (2 * bandwidth^2)).
_GAUSSIAN_FAMILIES = ("gaussian_plus_one", "gaussian")

# Kernel values in one row block of a blocked computation (8 MB of float64).
_BLOCK_ELEMENTS = 1 << 20
# Block heights are a multiple of this.  A BLAS matrix-vector product
# takes rows in small fixed groups and rounds a row by its place in its
# group, so aligned blocks round like one product over the whole batch
# wherever that product splits its rows over threads on aligned rows too.
_BLOCK_ROW_MULTIPLE = 64


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel, identified by family and parameters.

    Parameters
    ----------
    family : str
        One of ``"gaussian_plus_one"`` (Gaussian plus a constant, the
        default — the constant keeps constant functions inside the
        hypothesis space), ``"gaussian"`` (plain Gaussian, offset pinned
        to zero), or ``"custom_ref"`` (arbitrary callable ``ref(x, y)``).
    bandwidth : float
        Length scale of the Gaussian part; must be finite and positive.
    offset : float, optional
        Additive constant.  Defaults to 1 for ``gaussian_plus_one`` and
        to 0 for ``gaussian``; must be finite and non-negative.
    ref : callable, optional
        The kernel function itself, required iff family is
        ``"custom_ref"``.  Must accept two 1-d coordinate arrays.
    """

    family: str = "gaussian_plus_one"
    bandwidth: float = 1.0
    offset: float | None = None
    ref: Callable[[np.ndarray, np.ndarray], float] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        if self.family not in KNOWN_FAMILIES:
            raise InputError(
                f"unknown kernel family {self.family!r}; expected one of {KNOWN_FAMILIES}")
        # the kernel divides by 2 h^2, which must neither overflow nor vanish
        if not (is_number(self.bandwidth)
                and 0.0 < 2.0 * self.bandwidth * self.bandwidth < math.inf):
            raise InputError(f"bandwidth must be finite and positive, with 2 * bandwidth**2 "
                             f"finite and non-zero, got {self.bandwidth!r}")
        if self.offset is None:
            resolved = 1.0 if self.family == "gaussian_plus_one" else 0.0
            object.__setattr__(self, "offset", resolved)
        if not (is_number(self.offset) and math.isfinite(self.offset) and self.offset >= 0.0):
            raise InputError(
                f"offset must be finite and non-negative, got {self.offset!r}")
        if self.family == "gaussian" and self.offset != 0.0:
            raise InputError("family 'gaussian' has offset fixed at 0")
        if self.family == "custom_ref" and self.ref is None:
            raise InputError("family 'custom_ref' requires a ref callable")

    def diagonal_value(self) -> float:
        """k(x, x), which is constant (= offset + 1) for the gaussian families.

        This is both the supremum of the kernel on the diagonal and an
        upper bound for the spectrum of the normalized kernel matrix, so
        it is the natural right end for filter-constant checks.
        """
        if self.family == "custom_ref":
            raise InputError("diagonal_value is unknown for custom_ref kernels")
        return self.offset + 1.0

    def to_dict(self) -> dict:
        if self.family == "custom_ref":
            raise InputError("custom_ref kernels are not serializable")
        return {"family": self.family, "bandwidth": self.bandwidth,
                "offset": self.offset}

    @staticmethod
    def from_dict(data: dict) -> "KernelSpec":
        require_keys(data, ("family", "bandwidth", "offset"), "kernel")
        return KernelSpec(family=data["family"], bandwidth=data["bandwidth"],
                          offset=data["offset"])


def _as_points(values, *, name: str = "points") -> np.ndarray:
    """Coerce to a read-only (n, d) float array; scalars/1-d become a column."""
    arr = np.array(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise InputError(f"{name} must be at most 2-dimensional, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise InputError(f"{name} must have at least one coordinate")
    if arr.size and not np.isfinite(arr).all():
        raise InputError(f"{name} contain non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SampleSet:
    """An i.i.d. sample tagged with the measure it was drawn from.

    ``points`` is an (n, d) array; 1-d input is promoted to a single
    column.  ``measure_tag`` is ``"p"`` (reference/denominator) or
    ``"q"`` (target/numerator).  Immutable after construction.
    """

    points: np.ndarray
    measure_tag: str
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        if self.points.shape[0] == 0:
            raise InputError("sample must contain at least one point")
        if self.measure_tag not in ("p", "q"):
            raise InputError(f"measure_tag must be 'p' or 'q', got {self.measure_tag!r}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_dict(self) -> dict:
        return {"points": self.points.tolist(), "measure_tag": self.measure_tag,
                "seed": self.seed}

    @staticmethod
    def from_dict(data: dict) -> "SampleSet":
        require_keys(data, ("points", "measure_tag"), "sample")
        return SampleSet(points=data["points"], measure_tag=data["measure_tag"],
                         seed=data.get("seed"))


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    xa = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    ya = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    if xa.shape != ya.shape:
        raise InputError(f"point dimensions differ: {xa.shape[0]} vs {ya.shape[0]}")
    if spec.family == "custom_ref":
        return float(spec.ref(xa, ya))
    sq = float(np.dot(xa - ya, xa - ya))
    return spec.offset + math.exp(-sq / (2.0 * spec.bandwidth**2))


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise kernel values between the rows of ``a`` and ``b``.

    Returns an (len(a), len(b)) array.  Gaussian families accumulate the
    squared distances one coordinate at a time in the output and finish in
    place, so the call allocates the output plus, for d > 1, one array of
    the same shape.  The result is exactly symmetric when ``a`` is ``b``.
    Custom kernels fall back to an explicit loop.
    """
    a = _as_points(a, name="left points")
    b = _as_points(b, name="right points")
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if spec.family == "custom_ref":
        out = np.empty((a.shape[0], b.shape[0]))
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                out[i, j] = spec.ref(a[i], b[j])
        return out
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(out, out=out)
    if a.shape[1] > 1:
        column = np.empty_like(out)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=column)
            np.square(column, out=column)
            out += column
    out /= -(2.0 * spec.bandwidth**2)
    np.exp(out, out=out)
    out += spec.offset
    return out


def _row_blocks(count: int, width: int):
    """Slices over ``count`` rows of ``width`` kernel values, one block each.

    A block has at least ``_BLOCK_ROW_MULTIPLE`` rows and otherwise at most
    ``_BLOCK_ELEMENTS`` values.
    """
    rows = _BLOCK_ELEMENTS // width // _BLOCK_ROW_MULTIPLE * _BLOCK_ROW_MULTIPLE
    rows = max(rows, _BLOCK_ROW_MULTIPLE)
    for start in range(0, count, rows):
        yield slice(start, min(start + rows, count))


@dataclass(frozen=True)
class GramSystem:
    """The dense linear system shared by all fits on a sample pair.

    ``k_matrix`` is the (n, n) kernel matrix over the reference sample,
    exactly symmetric by construction.  ``f_bar`` is the length-n vector
    (n/m) * sum_j k(x_i, x'_j).  Immutable after construction.
    """

    k_matrix: np.ndarray
    f_bar: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        k = np.asarray(self.k_matrix, dtype=float)
        f = np.asarray(self.f_bar, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InputError(f"k_matrix must be square, got shape {k.shape}")
        if f.shape != (k.shape[0],):
            raise InputError(
                f"f_bar has shape {f.shape}, expected ({k.shape[0]},)")
        if k.shape[0] != self.n:
            raise InputError(f"n={self.n} does not match k_matrix of order {k.shape[0]}")
        if self.m < 1:
            raise InputError(f"m must be at least 1, got {self.m}")
        k.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "k_matrix", k)
        object.__setattr__(self, "f_bar", f)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending, unclipped) and eigenvectors of K/n.

        The one eigendecomposition behind selection, capacity and the
        spectral fit; each call decomposes afresh, nothing is cached.
        """
        try:
            return np.linalg.eigh(self.k_matrix / self.n)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigendecomposition of the kernel matrix failed") from exc

    def psd_tolerance(self) -> float:
        """Scale-aware slack allowed on eigenvalue non-negativity checks."""
        return 1e-10 * self.n * float(self.k_matrix.diagonal().max())


def assemble_gram(spec: KernelSpec, xp: SampleSet, xq: SampleSet) -> GramSystem:
    """Build the GramSystem for a reference/target sample pair.

    The kernel matrix is exactly symmetric as evaluated: entry (j, i)
    repeats the arithmetic of entry (i, j) on negated differences, so
    downstream symmetric factorizations never see asymmetry noise.  f_bar
    comes from row blocks of the cross kernel, so the call holds the
    n x n matrix plus one block, never the n x m cross kernel.
    """
    if xp.measure_tag != "p":
        raise InputError("first sample must carry measure_tag 'p'")
    if xq.measure_tag != "q":
        raise InputError("second sample must carry measure_tag 'q'")
    if xp.dim != xq.dim:
        raise InputError(f"sample dimensions differ: {xp.dim} vs {xq.dim}")
    k = kernel_matrix(spec, xp.points, xp.points)
    row_sums = np.empty(xp.n)
    for rows in _row_blocks(xp.n, xq.n):
        row_sums[rows] = kernel_matrix(spec, xp.points[rows], xq.points).sum(axis=1)
    f_bar = (xp.n / xq.n) * row_sums
    return GramSystem(k_matrix=k, f_bar=f_bar, n=xp.n, m=xq.n)


def reference_gram(spec: KernelSpec, xp: SampleSet) -> GramSystem:
    """Gram system over the reference sample alone (zero right-hand side).

    Enough for capacity diagnostics, which never touch f_bar.
    """
    k = kernel_matrix(spec, xp.points, xp.points)
    return GramSystem(k_matrix=k, f_bar=np.zeros(xp.n), n=xp.n, m=1)


# ---------------------------------------------------------------------------
# Sample I/O: CSV holds one point per row (plain coordinates, no header);
# JSON carries the full container including tag and seed.

def save_samples_csv(sample: SampleSet, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in sample.points:
            writer.writerow([repr(float(v)) for v in row])


def load_samples_csv(path, measure_tag: str, seed: int | None = None) -> SampleSet:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            records = [record for record in csv.reader(handle) if record]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path} is not a UTF-8 CSV file: {exc}") from exc
    try:
        rows = [[float(v) for v in record] for record in records]
    except ValueError as exc:
        raise InputError(f"non-numeric value in {path}: {exc}") from exc
    if not rows:
        raise InputError(f"no points found in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"inconsistent point dimensions in {path}: {sorted(widths)}")
    return SampleSet(points=rows, measure_tag=measure_tag, seed=seed)


def save_samples_json(sample: SampleSet, path) -> None:
    with open(path, "w") as handle:
        json.dump(sample.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_samples_json(path) -> SampleSet:
    return SampleSet.from_dict(load_json(path, "sample file"))
