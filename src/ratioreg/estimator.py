"""Fitting and evaluating the regularized density-ratio estimate.

The estimate solves a regularized linear problem in the RKHS attached to
the kernel.  With the empirical covariance operator built from the
reference sample,

    (T h)(.) = (1/n) * sum_i h(x_i) k(., x_i),

and the mean embedding of the target sample,

    f(.) = (1/m) * sum_j k(., x'_j),

the iterated shifted-inversion scheme starts from b_0 = 0 and repeats

    (lam I + T) b_l = f + lam b_{l-1},        l = 1 .. k.

Rearranging one step as

    b_l = (1/lam) f + b_{l-1} - (1/(n lam)) * sum_i b_l(x_i) k(., x_i)

shows by induction that every iterate is a combination of the kernel
sections at the reference points plus a multiple of the embedding,

    b_l = sum_i alpha_i k(., x_i) + mu * f,

where mu grows by exactly 1/lam per step (mu = l / lam after l steps) and
each step subtracts b_l(x_i) / (n lam) from alpha_i.  The sample values
v_l = (b_l(x_1), ..., b_l(x_n)) needed for that update follow from
evaluating the step at the reference points, giving the n-dimensional
recursion

    (n lam I + K) v_l = n lam v_{l-1} + f_bar,

with K the kernel matrix over the reference sample and f_bar from the
Gram system.  One symmetric factorization of (n lam I + K) is shared by
all k steps, so iterating costs k triangular solves, not k
factorizations.

The spectral path instead diagonalizes K/n = U diag(t) U^T and applies a
scalar filter g_lam to the spectrum.  Splitting f into its component
inside span{k(., x_i)} and a remainder that T annihilates (and that
vanishes at every reference point) gives

    g_lam(T) f = q_lam(T) T f + g_lam(0) f,
    q_lam(t) = (g_lam(t) - g_lam(0)) / t,

so alpha = q_lam(K/n) f_bar / n^2, mu = g_lam(0), and the fitted values
at the reference points reduce to U g_lam(diag t) U^T (f_bar / n).  For
the iterated scheme the two paths agree in exact arithmetic; the second
one also covers filters with no iterative form, such as hard cutoff.

A ladder of L strengths and a set of iteration counts k needs the values
at every pair (lam, k).  From one eigendecomposition they are the rows
of a single (L |k| x n) @ (n x n) product of filter rows with U^T.  For
the ten-rung default ladder that is cheaper than ten Cholesky factors
and their solves (measured from n = 100 to n = 1600 on one BLAS
thread), so the ladder takes the spectral path.  The Cholesky recursion
is kept for a single (lam, k) fit, where one factor is far cheaper than
an eigendecomposition.

Memory: a Cholesky fit holds K and one Fortran-order copy that is
shifted and factored in place, 2 n^2 floats.  ``evaluate_batch`` works
through row blocks of the kernel values, so it holds O(block (n + m))
floats besides its input and output, whatever the batch size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError, require_keys
from .kernel import GramSystem, KernelSpec, SampleSet, _row_blocks, kernel_matrix
from .regularization import (RegScheme, filter_quotient_value, filter_value,
                             filter_zero_value, iterated_lavrentiev)


@dataclass(frozen=True)
class RatioModel:
    """A fitted density-ratio estimate in representer form.

    The estimate evaluates as

        beta(x) = sum_i alpha[i] * k(x, x_i) + mu_coeff * (1/m) * sum_j k(x, x'_j)

    over the stored reference points x_i and target points x'_j.
    ``values_at_xp`` caches beta at the reference points, which is what
    the error metrics and the lambda selector consume.
    """

    kernel: KernelSpec
    scheme: RegScheme
    xp_points: np.ndarray
    xq_points: np.ndarray
    alpha: np.ndarray
    mu_coeff: float
    values_at_xp: np.ndarray

    def __post_init__(self):
        if not (self.xp_points.ndim == self.xq_points.ndim == 2
                and self.xp_points.shape[1] == self.xq_points.shape[1]):
            raise InputError(f"xp_points and xq_points must be (n, d) and (m, d), got "
                             f"{self.xp_points.shape} and {self.xq_points.shape}")
        n = self.xp_points.shape[0]
        if self.alpha.shape != (n,):
            raise InputError(f"alpha has shape {self.alpha.shape}, expected ({n},)")
        if self.values_at_xp.shape != (n,):
            raise InputError(
                f"values_at_xp has shape {self.values_at_xp.shape}, expected ({n},)")

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "scheme": self.scheme.to_dict(),
            "xp_points": self.xp_points.tolist(),
            "xq_points": self.xq_points.tolist(),
            "alpha": self.alpha.tolist(),
            "mu_coeff": self.mu_coeff,
            "values_at_xp": self.values_at_xp.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "RatioModel":
        arrays = ("xp_points", "xq_points", "alpha", "values_at_xp")
        require_keys(data, ("kernel", "scheme", "mu_coeff") + arrays, "model")
        try:
            numbers = {key: np.asarray(data[key], dtype=float) for key in arrays}
            numbers["mu_coeff"] = float(data["mu_coeff"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"model holds a non-numeric entry: {exc}") from exc
        return RatioModel(kernel=KernelSpec.from_dict(data["kernel"]),
                          scheme=RegScheme.from_dict(data["scheme"]), **numbers)


def save_model(model: RatioModel, path) -> None:
    with open(path, "w") as handle:
        json.dump(model.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path) -> RatioModel:
    with open(path) as handle:
        return RatioModel.from_dict(json.load(handle))


def _check_fit_inputs(gram: GramSystem, xp: SampleSet, xq: SampleSet) -> None:
    if gram.n != xp.n or gram.m != xq.n:
        raise InputError(
            f"gram system is (n={gram.n}, m={gram.m}) but samples are "
            f"(n={xp.n}, m={xq.n})")
    if xp.dim != xq.dim:
        raise InputError(f"sample dimensions differ: {xp.dim} vs {xq.dim}")


def _checked_counts(iteration_counts: Iterable[int]) -> list[int]:
    targets = sorted(set(int(k) for k in iteration_counts))
    if not targets:
        raise InputError("iteration_counts must be non-empty")
    if targets[0] < 1:
        raise InputError(f"iteration counts must be positive, got {targets[0]}")
    return targets


def _check_lam(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0.0):
        raise InputError(f"lam must be finite and positive, got {lam!r}")


def _shifted_factorization(gram: GramSystem, lam: float):
    """Cholesky factor of (n lam I + K), with a diagnosable failure path.

    The shift goes onto the diagonal of one Fortran-order copy of K, which
    LAPACK then factors in place: the only n x n allocation.  A failed
    factorization leaves that copy partly overwritten, so the reported
    smallest eigenvalue comes from K itself.
    """
    n_lam = gram.n * lam
    a_matrix = np.array(gram.k_matrix, order="F")
    a_matrix.flat[::gram.n + 1] += n_lam
    try:
        return scipy.linalg.cho_factor(a_matrix, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(gram.k_matrix)[0]) + n_lam
        raise NumericalError("shifted kernel system is not positive definite",
                             lam=lam, smallest_eigenvalue=smallest) from exc


def fit_iterated_lavrentiev_path(gram: GramSystem, xp: SampleSet, xq: SampleSet,
                                 kernel: KernelSpec, lam: float,
                                 iteration_counts: Iterable[int]) -> dict[int, RatioModel]:
    """Run the iteration once and snapshot a model at each requested count.

    All requested counts share a single factorization and a single value
    sequence, so fitting at k in {1, 2, 3, 5, 10} costs the same linear
    algebra as fitting at k = 10 alone.  Each snapshot is identical to
    what a separate ``fit_iterated_lavrentiev`` call would return.
    """
    _check_fit_inputs(gram, xp, xq)
    targets = _checked_counts(iteration_counts)
    _check_lam(lam)

    factor = _shifted_factorization(gram, lam)
    n_lam = gram.n * lam
    values = np.zeros(gram.n)
    alpha_accum = np.zeros(gram.n)
    models: dict[int, RatioModel] = {}
    for step in range(1, targets[-1] + 1):
        values = scipy.linalg.cho_solve(factor, n_lam * values + gram.f_bar)
        alpha_accum = alpha_accum + values
        if step in targets:
            if not np.isfinite(values).all():
                raise NumericalError(
                    f"non-finite fitted values after {step} iterations", lam=lam)
            models[step] = RatioModel(
                kernel=kernel,
                scheme=iterated_lavrentiev(lam, step),
                xp_points=xp.points,
                xq_points=xq.points,
                alpha=-alpha_accum / n_lam,
                mu_coeff=step / lam,
                values_at_xp=values.copy(),
            )
    return models


def fit_iterated_lavrentiev(gram: GramSystem, xp: SampleSet, xq: SampleSet,
                            kernel: KernelSpec, lam: float,
                            iterations: int = 1) -> RatioModel:
    """Fit by k shifted inversions of the empirical covariance.

    k = 1 is the classical least-squares importance-fitting estimate;
    larger k raises the scheme's qualification, which lowers the
    achievable bias for smooth ratios at the same lam.
    """
    path = fit_iterated_lavrentiev_path(gram, xp, xq, kernel, lam, [iterations])
    return path[iterations]


def _spectral_model(kernel: KernelSpec, xp: SampleSet, xq: SampleSet,
                    scheme: RegScheme, spectrum: np.ndarray, basis: np.ndarray,
                    rotated: np.ndarray, values: np.ndarray) -> RatioModel:
    """The model of ``scheme`` with the given values at xp, from K/n = U diag(t) U^T.

    ``spectrum`` is t floored at zero, ``basis`` is U and ``rotated`` is
    U^T f_bar; alpha = U q_lam(t) U^T f_bar / n^2.
    """
    alpha = basis @ (filter_quotient_value(scheme, spectrum) * rotated) / spectrum.size**2
    if not (np.isfinite(values).all() and np.isfinite(alpha).all()):
        raise NumericalError("non-finite spectral fit", lam=scheme.lam)
    return RatioModel(kernel=kernel, scheme=scheme, xp_points=xp.points,
                      xq_points=xq.points, alpha=alpha,
                      mu_coeff=filter_zero_value(scheme), values_at_xp=values)


def fit_spectral(gram: GramSystem, xp: SampleSet, xq: SampleSet,
                 kernel: KernelSpec, scheme: RegScheme) -> RatioModel:
    """Fit by applying an arbitrary spectral filter to the kernel spectrum.

    Diagonalizes K/n once; eigenvalues are floored at zero to absorb
    symmetric-eigensolver noise before the filter is applied.
    """
    _check_fit_inputs(gram, xp, xq)
    t, basis = gram.eigensystem()
    spectrum = np.clip(t, 0.0, None)
    rotated = basis.T @ gram.f_bar
    values = basis @ (filter_value(scheme, spectrum) * rotated / gram.n)
    return _spectral_model(kernel, xp, xq, scheme, spectrum, basis, rotated, values)


@dataclass(frozen=True)
class IteratedLadder:
    """Fitted values of the iterated scheme at every (strength, count) pair.

    ``values[k][i]`` holds the fitted values at the reference points for
    strength ``lambdas[i]`` and k iterations.  ``model(i, k)`` builds the
    full model at that pair from the same eigendecomposition (``spectrum``
    floored at zero, ``basis`` = U, ``rotated`` = U^T f_bar).
    """

    kernel: KernelSpec
    xp: SampleSet
    xq: SampleSet
    lambdas: tuple[float, ...]
    values: dict[int, np.ndarray]
    spectrum: np.ndarray
    basis: np.ndarray
    rotated: np.ndarray

    def model(self, index: int, iterations: int) -> RatioModel:
        return _spectral_model(
            self.kernel, self.xp, self.xq,
            iterated_lavrentiev(self.lambdas[index], iterations),
            self.spectrum, self.basis, self.rotated,
            self.values[iterations][index].copy())


def fit_iterated_lavrentiev_ladder(gram: GramSystem, xp: SampleSet, xq: SampleSet,
                                   kernel: KernelSpec, lambdas: Iterable[float],
                                   iteration_counts: Iterable[int]) -> IteratedLadder:
    """Fit the iterated scheme at every strength and count from one eigendecomposition.

    The values at the reference points are U g_{lam,k}(t) U^T f_bar / n
    for every pair, all from one (len(lambdas) * |counts| x n) @ (n x n)
    product.  They agree with ``fit_iterated_lavrentiev_path`` at each
    strength to rounding.  Raises ``NumericalError`` when
    min(lambdas) + t_min <= 0 (the shifted system is not positive
    definite) or when any value is non-finite.
    """
    _check_fit_inputs(gram, xp, xq)
    targets = _checked_counts(iteration_counts)
    lams = tuple(float(lam) for lam in lambdas)
    if not lams:
        raise InputError("lambdas must be non-empty")
    for lam in lams:
        _check_lam(lam)

    t, basis = gram.eigensystem()
    smallest = min(lams) + float(t[0])
    if not (smallest > 0.0):
        raise NumericalError("regularized kernel system is not positive definite",
                             lam=min(lams), smallest_eigenvalue=smallest)
    spectrum = np.clip(t, 0.0, None)
    rotated = basis.T @ gram.f_bar
    filters = np.array([filter_value(iterated_lavrentiev(lam, k), spectrum)
                        for k in targets for lam in lams])
    table = (filters * (rotated / gram.n)) @ basis.T
    if not np.isfinite(table).all():
        raise NumericalError("non-finite fitted values on the ladder", lam=min(lams))
    table = table.reshape(len(targets), len(lams), gram.n)
    return IteratedLadder(kernel=kernel, xp=xp, xq=xq, lambdas=lams,
                          values={k: table[i] for i, k in enumerate(targets)},
                          spectrum=spectrum, basis=basis, rotated=rotated)


def evaluate_batch(model: RatioModel, points) -> np.ndarray:
    """Evaluate the fitted ratio at many points at once.

    Works through row blocks of about ``kernel._BLOCK_ELEMENTS`` kernel
    values, so memory stays O(block (n + m)) for any batch size.  Each
    block uses the unblocked formula on rows aligned to the BLAS row
    groups, so the values keep the bits of one unblocked product (see
    ``kernel._BLOCK_ROW_MULTIPLE`` for when that holds).
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != model.xp_points.shape[1]:
        raise InputError(
            f"points have dimension {pts.shape[1]}, model expects "
            f"{model.xp_points.shape[1]}")
    values = np.empty(pts.shape[0])
    width = model.xp_points.shape[0] + model.xq_points.shape[0]
    for rows in _row_blocks(pts.shape[0], width):
        k_ref = kernel_matrix(model.kernel, pts[rows], model.xp_points)
        k_target = kernel_matrix(model.kernel, pts[rows], model.xq_points)
        values[rows] = k_ref @ model.alpha + model.mu_coeff * k_target.mean(axis=1)
    return values


def evaluate(model: RatioModel, x) -> float:
    """Evaluate the fitted ratio at a single point."""
    point = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    return float(evaluate_batch(model, point)[0])
