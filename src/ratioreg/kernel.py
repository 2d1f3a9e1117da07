"""Kernels, sample containers, and the Gram system with its spectral core.

Everything downstream works with two finite samples: ``xp`` drawn from the
reference distribution (the denominator of the density ratio) and ``xq``
drawn from the target distribution (the numerator).  A ``GramSystem`` is
the one holder of the kernel and both samples, together with the
cross-sample vector

    f_bar[i] = (n / m) * sum_j k(x_i, x'_j)

that acts as the right-hand side of every estimator in the package.  The
fits, the selection rule and the capacity diagnostics take the system
alone, so they cannot be handed a kernel or a sample it was not built from.

Selection, capacity and both fits work from the spectrum of K/n,
which for the Gaussian kernels decays geometrically: on 1-d samples K
has numerical rank 35-50 from n = 400 to 3200.  So ``eigensystem``
forms no n x n matrix.  A greedy pivoted Cholesky factor K = F^T F
(Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012) adds one kernel
column per step until every residual diagonal entry is at most
``_PIVOT_TOL`` = 2e-15 times max k(x, x), a truncation at machine
precision only; a QR of F^T / sqrt(n) and an r x r ``eigh`` give the r
eigenpairs, and the complement of their span counts as eigenvalue 0.  The
system keeps the eigenpairs, and f_bar split over them, once computed, so
selection, capacity and both fits share one decomposition however often
they are called; the filters read the eigenvalues floored at zero from
one accessor, ``GramSystem.spectrum``.
Past ``_PIVOT_CAP`` = n/2 steps (high rank, as for widely spread d >= 2
data) K/n is diagonalized densely: at n = 1600 and d = 3, the worst
case, that takes 0.67 s against 0.52 s for the dense ``eigh`` alone
(2 BLAS threads).

Memory: the eigensystem takes O(n r) floats, and only ``GramSystem.dense``
forms the n x n K, for the dense fallback.  The QR reads the pivoted factor
scaled in place, and ``_outside_span`` projects off span(U) in place, in an
array its caller owns.  f_bar, ``GramSystem.dot`` and
``estimator.evaluate_batch`` are weighted row sums of kernel values, and
one routine forms them all: ``kernel_sums`` sums row blocks of K(a, b),
without BLAS, on up to one thread per core.  The workers share one block
budget, each reusing its own arrays, and no output bit depends on the core
count.  A block holds about ``_BLOCK_ELEMENTS`` = 2^17 kernel values
(1 MB), and at least 64 rows; the same budget sizes the capacity probes,
which stay on the calling thread, as their BLAS products round by block
shape.  A sample CSV is parsed a record at a time into one flat array.
"""

from __future__ import annotations

import contextvars
import csv
import math
import os
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InputError, NumericalError, finite_array, finite_real, positive_real,
                     require_keys, save_csv)

# Both families are k(x, y) = offset + exp(-|x - y|^2 / (2 * bandwidth^2)).
KNOWN_FAMILIES = ("gaussian_plus_one", "gaussian")

# 2^17 kernel values (1 MB, half a 2 MB L2) per row block bound the memory of the few
# block-shaped arrays a loop holds.  Past width 1024 the 64-row floor below binds instead.
_BLOCK_ELEMENTS = 1 << 17
# Block heights are a multiple of this, which keeps a block aligned to the
# small fixed row and column groups that a BLAS product works through.
_BLOCK_ROW_MULTIPLE = 64


@dataclass(frozen=True)
class KernelSpec:
    """A positive-definite kernel, identified by family and parameters.

    Parameters
    ----------
    family : str
        One of ``"gaussian_plus_one"`` (Gaussian plus a constant, the
        default — the constant keeps constant functions inside the
        hypothesis space) or ``"gaussian"`` (plain Gaussian, offset pinned
        to zero).
    bandwidth : float
        Length scale of the Gaussian part; must be finite and positive.
    offset : float, optional
        Additive constant.  Defaults to 1 for ``gaussian_plus_one`` and
        to 0 for ``gaussian``; must be finite and non-negative.
    """

    family: str = "gaussian_plus_one"
    bandwidth: float = 1.0
    offset: float | None = None

    def __post_init__(self):
        if self.family not in KNOWN_FAMILIES:
            raise InputError(
                f"unknown kernel family {self.family!r}; expected one of {KNOWN_FAMILIES}")
        bandwidth = positive_real(self.bandwidth, "bandwidth")
        # the kernel divides by 2 h^2, which must neither overflow nor vanish
        if not 0.0 < 2.0 * bandwidth * bandwidth < math.inf:
            raise InputError(f"2 * bandwidth**2 must be finite and non-zero, got "
                             f"bandwidth={bandwidth!r}")
        object.__setattr__(self, "bandwidth", bandwidth)
        if self.offset is None:
            object.__setattr__(self, "offset", 1.0 if self.family == "gaussian_plus_one" else 0.0)
        object.__setattr__(self, "offset", finite_real(self.offset, "offset"))
        if self.offset < 0.0:
            raise InputError(f"offset must be non-negative, got {self.offset!r}")
        if self.family == "gaussian" and self.offset != 0.0:
            raise InputError("family 'gaussian' has offset fixed at 0")

    def diagonal_value(self) -> float:
        """k(x, x), which is constant (= offset + 1) for both families.

        This is both the supremum of the kernel on the diagonal and an
        upper bound for the spectrum of the normalized kernel matrix, so
        it is the natural right end for filter-constant checks.
        """
        return self.offset + 1.0

    @staticmethod
    def from_dict(data: dict) -> "KernelSpec":
        require_keys(data, ("family", "bandwidth", "offset"), "kernel")
        return KernelSpec(family=data["family"], bandwidth=data["bandwidth"],
                          offset=data["offset"])


def _as_points(values, *, name: str = "points") -> np.ndarray:
    """A read-only (n, d) copy of ``finite_array``; a scalar or 1-d array becomes a column."""
    arr = np.array(finite_array(values, name))
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise InputError(f"{name} must be at most 2-dimensional, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise InputError(f"{name} must have at least one coordinate")
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


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) array of kernel values between the rows of ``a`` and ``b``.

    The checked public form of ``_kernel_values``, for library users and tests; no
    package code calls it.
    """
    a = _as_points(a, name="left points")
    b = _as_points(b, name="right points")
    if a.shape[1] != b.shape[1]:
        raise InputError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return _kernel_values(spec, a, b)


def _kernel_values(spec: KernelSpec, a: np.ndarray, b: np.ndarray, *,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The core that forms every kernel value of the package: ``kernel_matrix`` on checked
    (n, d) arrays of equal d, into ``out`` when given (C-contiguous, (len(a), len(b))).
    The squared distances accumulate one coordinate at a time in the output, finished in
    place (d > 1 allocates one more array of its shape).  Exactly symmetric when ``a`` is
    ``b``; an overflowed |x - y|^2 gives offset."""
    with np.errstate(over="ignore"):
        out = np.subtract.outer(a[:, 0], b[:, 0], out=out)
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


def _block_height(width: int) -> int:
    """Rows of one block: at least ``_BLOCK_ROW_MULTIPLE``, otherwise at most
    ``_BLOCK_ELEMENTS`` values of ``width``."""
    return max(_BLOCK_ELEMENTS // width // _BLOCK_ROW_MULTIPLE, 1) * _BLOCK_ROW_MULTIPLE


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def kernel_sums(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                weights: np.ndarray | None = None) -> np.ndarray:
    """K(a, b) w for every row w of the (c, len(b)) ``weights``, or the row sums of K(a, b).

    ``a`` and ``b`` are checked (n, d) points; the result is (c, len(a)), with c = 1
    when ``weights`` is None.  Each entry is reduced by numpy's pairwise sum, not a
    BLAS product, so it has the same bits at any block height, core count and BLAS
    thread count.  Under two budgets of kernel values the caller runs alone; otherwise
    up to one worker per core takes every worker-count-th block of
    ``_block_height(len(b))`` rows over the worker count, so together they hold one
    block.  Each allocates its block once, and for c > 1 one of products beside it
    (one row of weights multiplies the block in place).  Threads run in a copy of the
    caller's context, which carries ``np.errstate``; the first worker error is raised
    in the caller.
    """
    if a.shape[1] != b.shape[1]:
        raise InputError(f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    count, width = len(a), len(b)
    out = np.empty((1 if weights is None else len(weights), count))
    if not out.size:
        return out
    workers = 1 if count * width < 2 * _BLOCK_ELEMENTS else min(_cores(), count)
    height = min(max(_block_height(width) // workers, 1), count)
    errors = []

    def worker(first: int) -> None:
        try:
            buffer = np.empty((height, width))
            products = buffer if len(out) == 1 else np.empty_like(buffer)
            for start in range(first * height, count, workers * height):
                if errors:
                    return
                rows = slice(start, min(start + height, count))
                block = _kernel_values(spec, a[rows], b, out=buffer[:rows.stop - start])
                if weights is None:
                    block.sum(axis=1, out=out[0, rows])
                else:
                    product = products[:len(block)]  # the block itself for one weight row
                    for vector, entries in zip(weights, out):
                        np.multiply(block, vector, out=product)
                        product.sum(axis=1, out=entries[rows])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(worker, index))
               for index in range(1, workers)]
    for thread in threads:
        thread.start()
    worker(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


# Pivoting stops at residual diagonal <= _PIVOT_TOL * max k(x, x), about ten
# roundings, or gives up after _PIVOT_CAP * n steps for a dense eigh (measured).
_PIVOT_TOL = 2e-15
_PIVOT_CAP = 0.5


def _pivoted_cholesky(spec: KernelSpec, points: np.ndarray, tol: float,
                      cap: int) -> np.ndarray | None:
    """Rows of F (r x n) with K = F^T F up to a residual diagonal of ``tol``.

    Each step pivots on the largest residual diagonal entry and
    orthogonalizes that point's kernel column against the earlier rows,
    O(n r^2) in all.  None if the residual is above ``tol`` after ``cap`` steps.
    """
    n = points.shape[0]
    residual = np.full(n, spec.diagonal_value())
    rows = np.empty((min(cap, 64), n))
    for step in range(cap + 1):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= tol:
            return rows[:step]
        if step == cap:
            return None
        if step == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(step, cap - step), n))])
        column = rows[step]
        _kernel_values(spec, points, points[pivot:pivot + 1], out=column[:, np.newaxis])
        column -= rows[:step, pivot] @ rows[:step]
        column /= math.sqrt(residual[pivot])
        residual -= column * column
        residual[pivot] = 0.0


def _outside_span(basis: np.ndarray, vectors: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The part of ``vectors`` outside span(basis), given coords = basis^T vectors,
    written over ``vectors``, which it returns; the caller owns that array.

    Projected out twice: the first difference is rounding noise that points
    along the basis as much as across it.  Each pass holds one product of the
    shape of ``vectors``.  Exactly zero for a square basis.
    """
    if basis.shape[1] == basis.shape[0]:
        vectors.fill(0.0)
        return vectors
    vectors -= basis @ coords
    vectors -= basis @ (basis.T @ vectors)
    return vectors


def _check_shift(lam: float, spectrum: np.ndarray) -> None:
    """NumericalError unless lam + min(spectrum) > 0: lam I + K/n is positive definite."""
    smallest = lam + float(spectrum[0])
    if not (smallest > 0.0):
        raise NumericalError("regularized kernel system is not positive definite",
                             lam=lam, smallest_eigenvalue=smallest)


@dataclass(frozen=True, kw_only=True)
class GramSystem:
    """The one holder of the kernel and the sample pair that every fit shares.

    It keeps the ``kernel``, the reference sample ``xp``, the target
    sample ``xq`` (None for a capacity-only system) and ``f_bar`` =
    (n/m) * sum_j k(x_i, x'_j); n and m are read off the samples.  Kernel
    values are formed when asked, and K/n decomposes one way: the pivoted
    factor, or the dense ``eigh`` past the pivot cap.  Immutable after
    construction, apart from the eigensystem it keeps once computed
    (``eigensystem``); ``dataclasses.replace`` gives a copy without it.
    """

    kernel: KernelSpec
    xp: SampleSet
    xq: SampleSet | None
    f_bar: np.ndarray

    def __post_init__(self):
        if self.xp.measure_tag != "p":
            raise InputError("first sample must carry measure_tag 'p'")
        if self.xq is not None:
            if self.xq.measure_tag != "q":
                raise InputError("second sample must carry measure_tag 'q'")
            if self.xp.dim != self.xq.dim:
                raise InputError(f"sample dimensions differ: {self.xp.dim} vs {self.xq.dim}")
        f = np.array(finite_array(self.f_bar, "f_bar"))  # frozen below, so not the caller's
        if f.shape != (self.n,):
            raise InputError(f"f_bar has shape {f.shape}, expected ({self.n},)")
        f.setflags(write=False)
        object.__setattr__(self, "f_bar", f)

    @property
    def n(self) -> int:
        return self.xp.n

    def dense(self) -> np.ndarray:
        """A fresh, plain (C-order, writable) K, exactly symmetric, from ``_kernel_values``
        for the dense ``eigh`` fallback, which scales it in place and which ``eigh``
        copies; the test seam ``dense_twin`` is the only other reader."""
        return _kernel_values(self.kernel, self.xp.points, self.xp.points)

    def dot(self, vectors: np.ndarray) -> np.ndarray:
        """K v for every row v of the (c, n) ``vectors``, by ``kernel_sums``.

        The workers hold one row block of kernel values and, for c > 1, one of
        products between them, and no n x n array.  The fit's refinement is the
        only caller, and the test seam ``dense_twin`` patches this method.
        """
        return kernel_sums(self.kernel, self.xp.points, self.xp.points, vectors)

    def spectrum(self) -> np.ndarray:
        """The eigenvalues t of K/n floored at zero, which absorbs the eigensolver's rounding.

        The filters, N(lam) and the balance point read this; the shift check
        and the leverages read the unclipped t.
        """
        return np.maximum(self.eigensystem[0], 0.0)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(t, U, U^T f_bar, f_bar - U U^T f_bar): eigenpairs of K/n and f_bar split over U.

        t is ascending and unclipped, U orthonormal and (n, r): with K = F^T F
        the pivoted Cholesky factor, F^T / sqrt(n) = Q R and R R^T = V diag(t) V^T
        give U = Q V, and the complement of span(U) stands for eigenvalue 0.  Past
        the pivot cap K/n is diagonalized densely (r = n).  The first read
        decomposes and keeps the four read-only arrays; a failed one is not kept.
        """
        factor = _pivoted_cholesky(self.kernel, self.xp.points,
                                   _PIVOT_TOL * self.kernel.diagonal_value(),
                                   int(_PIVOT_CAP * self.n))
        try:
            if factor is None:
                scaled = self.dense()
                scaled /= self.n
                t, u = np.linalg.eigh(scaled)
            else:
                factor /= math.sqrt(self.n)
                q, r = np.linalg.qr(factor.T)
                t, v = np.linalg.eigh(r @ r.T)
                u = q @ v
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigendecomposition of the kernel matrix failed") from exc
        rotated = u.T @ self.f_bar
        arrays = (t, u, rotated, _outside_span(u, self.f_bar.copy(), rotated))
        for part in arrays:
            part.setflags(write=False)
        return arrays


def assemble_gram(spec: KernelSpec, xp: SampleSet, xq: SampleSet | None = None) -> GramSystem:
    """Build the GramSystem for a reference sample and, optionally, a target sample.

    f_bar comes from row blocks of the cross kernel, so the call never
    holds the n x m cross kernel, nor any n x n matrix.  Without a target
    sample f_bar is zero, which is all the capacity diagnostics need; such
    a system cannot be fitted.
    """
    f_bar = np.zeros(xp.n)
    if xq is not None:
        with np.errstate(over="ignore"):  # an overflowed f_bar is refused by GramSystem
            f_bar = kernel_sums(spec, xp.points, xq.points)[0] * (xp.n / xq.n)
    return GramSystem(kernel=spec, xp=xp, xq=xq, f_bar=f_bar)


# ---------------------------------------------------------------------------
# Sample I/O: CSV holds one point per row (plain coordinates, no header).

def save_samples_csv(sample: SampleSet, path) -> None:
    save_csv(sample.points, path)


def load_samples_csv(path, measure_tag: str) -> SampleSet:
    """The points of a CSV file, one per non-blank record, as a ``SampleSet``.

    Each record is parsed into one flat array of floats as it is read, so the first
    fault read (bad UTF-8, a malformed record, a non-numeric field) is the one reported;
    the widths of all records are compared at the end.
    """
    values, widths = array("d"), set()
    # outside the handlers: a path holding NUL raises a ValueError of its own
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            for record in csv.reader(handle):
                if record:
                    values.extend(map(float, record))
                    widths.add(len(record))
        except (UnicodeDecodeError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise InputError(f"{path} is not a UTF-8 CSV file: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"non-numeric value in {path}: {exc}") from exc
    if not widths:
        raise InputError(f"no points found in {path}")
    if len(widths) != 1:
        raise InputError(f"inconsistent point dimensions in {path}: {sorted(widths)}")
    return SampleSet(points=np.frombuffer(values).reshape(-1, widths.pop()),
                     measure_tag=measure_tag)
