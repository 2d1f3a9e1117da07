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
Gram system.  The k steps solve with the system's eigensystem (below),
which needs no factorization of its own, and are then refined against K
itself (``fit_iterated_lavrentiev``).

Every fit takes one ``kernel.GramSystem``, the one holder of the kernel,
both samples and f_bar, and copies the kernel and the sample points into
the model it returns.  A system assembled without a target sample cannot
be fitted.

The spectral path instead diagonalizes K/n = U diag(t) U^T and applies a
scalar filter g_lam to the spectrum.  Splitting f into its component
inside span{k(., x_i)} and a remainder that T annihilates (and that
vanishes at every reference point) gives

    g_lam(T) f = q_lam(T) T f + g_lam(0) f,
    q_lam(t) = (g_lam(t) - g_lam(0)) / t,

so alpha = q_lam(K/n) f_bar / n^2, mu = g_lam(0), and the fitted values
at the reference points are g_lam(K/n) f_bar / n.  ``GramSystem.eigensystem``
gives r eigenpairs (t, U) and counts the complement of span(U) as
eigenvalue 0, so with f_out = f_bar - U U^T f_bar (zero when r = n) both
are one filtered sum

    (U h(t) U^T f_bar + h(0) f_out) / s,

with (h, s) = (g_lam, n) for the values and (q_lam, n^2) for alpha.  One
routine forms that sum for ``fit_spectral`` and for every strength of a
ladder at one iteration count, in products of one shape per system, so a
ladder's row at lam has the bits of ``fit_spectral`` at lam.  Selection
reads the ladder alone and builds no model: ``fit_spectral`` and
``RatioModel.from_dict`` are the only code that builds a spectral one.  The
iterated scheme's two paths agree in exact arithmetic; the spectral one
also covers filters with no iterative form, such as cutoff.  A single
(lam, k) fit (``fit``, ``rates``) runs the recursion itself, so its
values are corrected against K and not only against the truncated
spectrum.

Memory: the ladder and both fits hold O(n r) floats besides the (L x n)
table or the k iterates, and the refinement two blocks of kernel values.
``evaluate_batch`` makes two passes of ``kernel.kernel_sums``, over blocks
of n and then of m kernel values a row, so it holds one block whatever the
batch size.  Both run on up to one thread per core, whose workers share one
block budget.  Each sums every row on its own without BLAS, so a point's
value is the same in any batch and at any BLAS thread count or core count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .errors import (InputError, NumericalError, finite_array, finite_real, iteration_count,
                     load_json, positive_real, require_keys, save_json)
from .kernel import GramSystem, KernelSpec, _as_points, _check_shift, _outside_span, kernel_sums
from .regularization import (RegScheme, filter_quotient_value, filter_value,
                             iterated_filter_rows, iterated_lavrentiev)


@dataclass(frozen=True)
class RatioModel:
    """A fitted density-ratio estimate in representer form.

    The estimate evaluates as

        beta(x) = sum_i alpha[i] * k(x, x_i) + mu_coeff * (1/m) * sum_j k(x, x'_j)

    over the stored reference points x_i and target points x'_j.
    ``values_at_xp`` caches beta at the reference points, which the rate
    study's error metric reads; the lambda selector reads ladder rows instead.
    """

    kernel: KernelSpec
    scheme: RegScheme
    xp_points: np.ndarray
    xq_points: np.ndarray
    alpha: np.ndarray
    mu_coeff: float
    values_at_xp: np.ndarray
    _ARRAYS = ("xp_points", "xq_points", "alpha", "values_at_xp")  # not a field: no annotation

    def __post_init__(self):
        for key in self._ARRAYS:
            object.__setattr__(self, key, finite_array(getattr(self, key), f"model {key}"))
        if not (self.xp_points.ndim == self.xq_points.ndim == 2
                and self.xp_points.shape[1] == self.xq_points.shape[1]):
            raise InputError(f"xp_points and xq_points must be (n, d) and (m, d), got "
                             f"{self.xp_points.shape} and {self.xq_points.shape}")
        if 0 in self.xp_points.shape + self.xq_points.shape:
            raise InputError(f"xp_points and xq_points need n, m, d >= 1, got "
                             f"{self.xp_points.shape} and {self.xq_points.shape}")
        n = self.xp_points.shape[0]
        if self.alpha.shape != (n,):
            raise InputError(f"alpha has shape {self.alpha.shape}, expected ({n},)")
        if self.values_at_xp.shape != (n,):
            raise InputError(
                f"values_at_xp has shape {self.values_at_xp.shape}, expected ({n},)")

    def to_dict(self) -> dict:
        return {
            "kernel": asdict(self.kernel),
            "scheme": self.scheme.to_dict(),
            "xp_points": self.xp_points.tolist(),
            "xq_points": self.xq_points.tolist(),
            "alpha": self.alpha.tolist(),
            "mu_coeff": self.mu_coeff,
            "values_at_xp": self.values_at_xp.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "RatioModel":
        require_keys(data, ("kernel", "scheme", "mu_coeff") + RatioModel._ARRAYS, "model")
        return RatioModel(kernel=KernelSpec.from_dict(data["kernel"]),
                          scheme=RegScheme.from_dict(data["scheme"]),
                          mu_coeff=finite_real(data["mu_coeff"], "mu_coeff"),
                          **{key: data[key] for key in RatioModel._ARRAYS})


def save_model(model: RatioModel, path) -> None:
    save_json(model.to_dict(), path)


def load_model(path) -> RatioModel:
    return RatioModel.from_dict(load_json(path, "model file"))


def _check_target(gram: GramSystem) -> None:
    if gram.xq is None:
        raise InputError("the Gram system has no target sample to fit; "
                         "assemble it from both xp and xq")


# The refinement stops after a correction of at most _REFINE_STOP k kappa eps times
# the largest value, k kappa eps being what k solves can attain, with kappa = 1 + t_max
# / lam bounding the condition number of lam I + K/n.  First corrections measured up to
# 11 k kappa eps, and the next ones up to 3 kappa eps, the rounding of the residuals
# (n = 400 to 3200, d = 1 to 3 with rank 49 to n, lam = 0.1 to 1e-9, k = 1 to 10): one
# pass each.  So a correction no smaller than the one before it (the iterates count as
# the first), or no stop after _REFINE_PASSES passes, raises NumericalError.
_REFINE_STOP = 32.0
_REFINE_PASSES = 4


def fit_iterated_lavrentiev(gram: GramSystem, lam: float, iterations: int = 1) -> RatioModel:
    """Fit by k shifted inversions of the empirical covariance.

    k = 1 is the classical least-squares importance-fitting estimate;
    larger k raises the scheme's qualification, which lowers the
    achievable bias for smooth ratios at the same lam.

    The k steps first solve with the system's eigensystem, S(b) = U diag(1 / (n lam +
    n t)) U^T b + (b - U U^T b) / (n lam), which leaves out the pivot truncation of K.
    Iterative refinement against K restores it (Wilkinson; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12): one pass of ``GramSystem.dot`` gives
    every residual r_j = f_bar + n lam v_{j-1} - (n lam I + K) v_j, and the corrections
    d_j = S(r_j + n lam d_{j-1}) are added in order.  The pass holds two blocks of
    kernel values and no n x n array, and sums without BLAS, so the values have
    the same bits at any BLAS thread count or core count.  lam is checked as the
    ladder checks it.
    """
    _check_target(gram)
    scheme = iterated_lavrentiev(lam, iterations)
    lam = scheme.lam
    n_lam = gram.n * lam
    if not math.isfinite(gram.kernel.diagonal_value() + n_lam):
        raise InputError(f"the shifted diagonal overflows: n={gram.n}, lam={lam!r}")
    t, basis, _, _ = gram.eigensystem
    _check_shift(lam, t)
    gains = 1.0 / (n_lam + gram.n * t)

    def steps(rhs: np.ndarray) -> np.ndarray:
        """x_j = S(rhs_j + n lam x_{j-1}) for every row j, from x_0 = 0."""
        out = np.zeros((len(rhs) + 1, gram.n))
        for j, row in enumerate(rhs, start=1):
            b = row + n_lam * out[j - 1]
            coords = basis.T @ b
            out[j] = basis @ (gains * coords) + _outside_span(basis, b, coords) / n_lam
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # raised below, not warned
        stop = _REFINE_STOP * scheme.iterations * np.finfo(float).eps * (1.0 + t[-1] / lam)
        values = steps(np.broadcast_to(gram.f_bar, (scheme.iterations, gram.n)))
        previous = np.abs(values).max()  # the iterates are the first correction, from 0
        for _ in range(_REFINE_PASSES):
            residuals = gram.f_bar + n_lam * (values[:-1] - values[1:]) - gram.dot(values[1:])
            corrections = steps(residuals)
            size = np.abs(corrections).max()
            if not (size < previous or size == 0.0):
                problem = "stopped shrinking" if math.isfinite(size) else "is non-finite"
                raise NumericalError(f"the refinement's correction {problem} ({size:.3g} "
                                     f"after {previous:.3g})", lam=lam)
            values += corrections
            if size <= stop * np.abs(values).max():
                break
            previous = size
        else:
            raise NumericalError(
                f"iterative refinement did not converge in {_REFINE_PASSES} passes", lam=lam)
        values = values[1:]
        alpha = -values.sum(axis=0) / n_lam
    if not (np.isfinite(values).all() and np.isfinite(alpha).all()):
        raise NumericalError(
            f"non-finite fitted values or alpha after {scheme.iterations} iterations", lam=lam)
    return RatioModel(kernel=gram.kernel, scheme=scheme, xp_points=gram.xp.points,
                      xq_points=gram.xq.points, alpha=alpha,
                      mu_coeff=scheme.iterations / lam, values_at_xp=values[-1])


# ``_filtered`` multiplies in blocks of one height per system, since OpenBLAS
# rounds a row by its product's shape (x86-64): below this many entries, with
# r >= 32, in a small-matrix kernel; in a one-row product, as a matrix-vector
# one; from 12 rows at n >= 193 (not a multiple of 8), by the row's place.  At
# least 11 rows per block also make the default 10-strength ladder one product.
_FILTER_MIN_ENTRIES = 1201


def _filtered(gram: GramSystem, filter_rows, scale: float) -> np.ndarray:
    """(U h(t) U^T f_bar + h(0) f_out) / scale for every filter row h.

    ``filter_rows`` maps the spectrum, t floored at zero with the
    complement's 0 last, to an array of rows h(t); the result has one
    row of n values per filter row.  Every spectral value and alpha comes
    from here, so a row has the same bits whichever call computes it.  A
    filter that overflows at a tiny strength gives inf or nan without a
    warning; the callers' finiteness checks raise NumericalError for it.
    """
    _, basis, rotated, outside = gram.eigensystem
    height = max(-(-_FILTER_MIN_ENTRIES // gram.n), 11)
    rank = len(rotated)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.atleast_2d(filter_rows(np.concatenate([gram.spectrum(), [0.0]])))  # h(0) last
        weights = np.zeros((-(-len(rows) // height), height, rank))
        np.multiply(rows[:, :-1], rotated / scale, out=weights.reshape(-1, rank)[:len(rows)])
        out = (weights @ basis.T).reshape(-1, gram.n)[:len(rows)]
        out += rows[:, -1:] * (outside / scale)
    return out


def fit_spectral(gram: GramSystem, scheme: RegScheme) -> RatioModel:
    """Fit by applying an arbitrary spectral filter to the kernel spectrum.

    Uses the system's eigensystem of K/n; the filter is applied to the
    eigenvalues floored at zero (``GramSystem.spectrum``).  The values at
    xp are g_lam(K/n) f_bar / n and alpha is q_lam(K/n) f_bar / n^2.  lam
    is checked as the ladder checks it.
    """
    _check_target(gram)
    _check_shift(scheme.lam, gram.eigensystem[0])
    values = _filtered(gram, partial(filter_value, scheme), gram.n)[0]
    alpha = _filtered(gram, partial(filter_quotient_value, scheme), gram.n**2)[0]
    if not (np.isfinite(values).all() and np.isfinite(alpha).all()):
        raise NumericalError("non-finite spectral fit", lam=scheme.lam)
    return RatioModel(kernel=gram.kernel, scheme=scheme, xp_points=gram.xp.points,
                      xq_points=gram.xq.points, alpha=alpha,
                      mu_coeff=filter_value(scheme, 0.0), values_at_xp=values)


def fit_iterated_lavrentiev_ladder(gram: GramSystem, lambdas: Iterable[float],
                                   iterations: int) -> np.ndarray:
    """Values at xp of the iterated scheme with k = ``iterations`` at every strength.

    Row i of the (len(lambdas), n) result holds the values at
    ``lambdas[i]``, with the bits of ``fit_spectral`` at that strength, from
    the system's eigensystem (module docstring); they agree with
    ``fit_iterated_lavrentiev`` to rounding.  Raises ``NumericalError``
    when min(lambdas) + t_min <= 0 (the shifted system is not positive
    definite) or when any value is non-finite.
    """
    _check_target(gram)
    iterations = iteration_count(iterations, "iteration count")
    lams = tuple(positive_real(lam, "lam") for lam in lambdas)
    if not lams:
        raise InputError("lambdas must be non-empty")
    _check_shift(min(lams), gram.eigensystem[0])
    values = _filtered(gram, partial(iterated_filter_rows, lams, iterations), gram.n)
    if not np.isfinite(values).all():
        raise NumericalError("non-finite fitted values on the ladder", lam=min(lams))
    return values


def evaluate_batch(model: RatioModel, points) -> np.ndarray:
    """Evaluate the fitted ratio at many points at once.

    Two passes of ``kernel.kernel_sums``, alpha-weighted against the n reference points
    and plain against the m target points, each holding one block of at least 64 rows
    and otherwise of about 2^17 kernel values (1 MB) on up to one thread per core, for
    any batch size.  Each row is reduced on its own, by numpy's pairwise sum and not a
    BLAS product, so a point's value has the same bits in any batch, block, core count
    or BLAS thread count.
    """
    pts = _as_points(points)
    if pts.shape[1] != model.xp_points.shape[1]:
        raise InputError(
            f"points have dimension {pts.shape[1]}, model expects "
            f"{model.xp_points.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, not warned
        ref = kernel_sums(model.kernel, pts, model.xp_points, model.alpha[np.newaxis])[0]
        target = kernel_sums(model.kernel, pts, model.xq_points)[0]
        values = ref + model.mu_coeff * (target / len(model.xq_points))
    if not np.isfinite(values).all():
        raise NumericalError("non-finite evaluated value", lam=model.scheme.lam)
    return values
