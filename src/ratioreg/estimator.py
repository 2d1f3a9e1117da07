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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernel import GramSystem, KernelSpec, SampleSet, kernel_matrix
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
        return RatioModel(
            kernel=KernelSpec.from_dict(data["kernel"]),
            scheme=RegScheme.from_dict(data["scheme"]),
            xp_points=np.asarray(data["xp_points"], dtype=float),
            xq_points=np.asarray(data["xq_points"], dtype=float),
            alpha=np.asarray(data["alpha"], dtype=float),
            mu_coeff=float(data["mu_coeff"]),
            values_at_xp=np.asarray(data["values_at_xp"], dtype=float),
        )


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


def _shifted_factorization(gram: GramSystem, lam: float):
    """Cholesky factor of (n lam I + K), with a diagnosable failure path."""
    a_matrix = gram.k_matrix + (gram.n * lam) * np.eye(gram.n)
    try:
        return scipy.linalg.cho_factor(a_matrix, lower=True)
    except scipy.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(a_matrix)[0])
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
    targets = sorted(set(int(k) for k in iteration_counts))
    if not targets:
        raise InputError("iteration_counts must be non-empty")
    if targets[0] < 1:
        raise InputError(f"iteration counts must be positive, got {targets[0]}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise InputError(f"lam must be finite and positive, got {lam!r}")

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


def fit_spectral(gram: GramSystem, xp: SampleSet, xq: SampleSet,
                 kernel: KernelSpec, scheme: RegScheme) -> RatioModel:
    """Fit by applying an arbitrary spectral filter to the kernel spectrum.

    Diagonalizes K/n once; eigenvalues are floored at zero to absorb
    symmetric-eigensolver noise before the filter is applied.
    """
    _check_fit_inputs(gram, xp, xq)
    try:
        spectrum, basis = np.linalg.eigh(gram.k_matrix / gram.n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the kernel matrix failed",
                             lam=scheme.lam) from exc
    spectrum = np.clip(spectrum, 0.0, None)

    g = filter_value(scheme, spectrum)
    quotient = filter_quotient_value(scheme, spectrum)
    rotated = basis.T @ gram.f_bar
    values = basis @ (g * rotated / gram.n)
    alpha = basis @ (quotient * rotated) / gram.n**2
    if not (np.isfinite(values).all() and np.isfinite(alpha).all()):
        raise NumericalError("non-finite spectral fit", lam=scheme.lam)
    return RatioModel(kernel=kernel, scheme=scheme, xp_points=xp.points,
                      xq_points=xq.points, alpha=alpha,
                      mu_coeff=filter_zero_value(scheme), values_at_xp=values)


def evaluate_batch(model: RatioModel, points) -> np.ndarray:
    """Evaluate the fitted ratio at many points at once."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != model.xp_points.shape[1]:
        raise InputError(
            f"points have dimension {pts.shape[1]}, model expects "
            f"{model.xp_points.shape[1]}")
    k_ref = kernel_matrix(model.kernel, pts, model.xp_points)
    k_target = kernel_matrix(model.kernel, pts, model.xq_points)
    return k_ref @ model.alpha + model.mu_coeff * k_target.mean(axis=1)


def evaluate(model: RatioModel, x) -> float:
    """Evaluate the fitted ratio at a single point."""
    point = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    return float(evaluate_batch(model, point)[0])
