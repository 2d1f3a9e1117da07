"""Capacity diagnostics: regularized pointwise leverage and its integrals.

For the empirical covariance operator T built from the reference sample,
the regularized leverage of a point x (a regularized Christoffel-type
quantity) is

    C_lam(x) = < k(., x), (lam I + T)^{-1} k(., x) >
             = (1/lam) * ( k(x, x) - (1/n) * k_x^T (lam I + K/n)^{-1} k_x ),

with k_x the vector of kernel values against the reference points.  Its
average over the reference sample equals the effective dimension

    N(lam) = trace( (lam I + K/n)^{-1} K/n ) = sum_i t_i / (lam + t_i),

a cross-check the tests exercise, and its supremum over a probe region
estimates the sup-norm capacity.  The balance point lambda_star solves
N(lam) / lam = n, the largest regularization strength at which the
variance budget matches the sample size; N(lam)/lam is strictly
decreasing, so the solution is unique whenever the bracket straddles n.

All of it comes from one eigendecomposition K/n = U diag(t) U^T, where

    C_lam(x) = ( k(x, x) - (1/n) * sum_i (U^T k_x)_i^2 / (lam + t_i) ) / lam.

A profile over L strengths and p probes costs one decomposition, one
n x p product W = (U^T k_x)^2 and an (L x n) @ W filter sum.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .kernel import GramSystem, KernelSpec, SampleSet, eval_kernel, kernel_matrix


def _strengths(lambdas, single: bool = False) -> np.ndarray:
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if (single and np.ndim(lambdas)) or not (lams.size and np.all(np.isfinite(lams) & (lams > 0))):
        count = "a single number" if single else "at least one"
        raise InputError(f"lam must be finite and positive ({count}), got {lambdas!r}")
    return lams


def _eigensystem(gram: GramSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of K/n."""
    try:
        return np.linalg.eigh(gram.k_matrix / gram.n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the kernel matrix failed") from exc


def _n_eff(spectrum: np.ndarray, lam: float) -> float:
    return float(np.sum(spectrum / (lam + spectrum)))


def _probes(xp: SampleSet, points) -> np.ndarray:
    probes = np.asarray(points, dtype=float)
    if probes.ndim == 1:
        probes = probes.reshape(-1, 1)
    if probes.shape[0] == 0:
        raise InputError("probe_points must be non-empty")
    if probes.shape[1] != xp.dim:
        raise InputError(f"probes have dimension {probes.shape[1]}, sample has {xp.dim}")
    return probes


def _leverages(gram: GramSystem, spec: KernelSpec, xp: SampleSet,
               lams: np.ndarray, probes: np.ndarray):
    """Eigenvalues of K/n and C_lam as a (len(lams), len(probes)) array."""
    t, u = _eigensystem(gram)
    smallest = float(lams.min() + t[0])
    if not (smallest > 0.0):
        raise NumericalError("regularized kernel system is not positive definite",
                             lam=float(lams.min()), smallest_eigenvalue=smallest)
    diag = np.array([eval_kernel(spec, x, x) for x in probes])
    weights = u.T @ kernel_matrix(spec, xp.points, probes)
    np.square(weights, out=weights)
    quad = (1.0 / (lams[:, None] + t)) @ weights / gram.n
    return t, (diag - quad) / lams[:, None]


def christoffel(gram: GramSystem, spec: KernelSpec, xp: SampleSet,
                lam: float, x) -> float:
    """Regularized leverage C_lam(x) of a single point.

    Non-negative in exact arithmetic; tiny negative values (above about
    -1e-10 on unit-scale kernels) can appear through cancellation and
    are returned as computed.
    """
    probe = _probes(xp, np.reshape(np.asarray(x, dtype=float), (1, -1)))
    return float(_leverages(gram, spec, xp, _strengths(lam, single=True), probe)[1][0, 0])


def effective_dimension(gram: GramSystem, lam: float) -> float:
    """N(lam) = sum_i t_i / (lam + t_i) over the spectrum of K/n.

    Strictly positive, below n, and decreasing in lam.
    """
    _strengths(lam, single=True)
    return _n_eff(np.clip(_eigensystem(gram)[0], 0.0, None), lam)


def n_inf_estimate(gram: GramSystem, spec: KernelSpec, xp: SampleSet,
                   lam: float, probe_points) -> float:
    """Sup-norm capacity estimate: max regularized leverage over probes.

    The reference points themselves are always included in the scan, so
    the estimate is never below the in-sample maximum.
    """
    scan = np.vstack([_probes(xp, probe_points), xp.points])
    return float(_leverages(gram, spec, xp, _strengths(lam, single=True), scan)[1].max())


def _balance_point(gram: GramSystem, spectrum: np.ndarray, bracket,
                   rel_tol: float = 1e-9, max_iter: int = 200) -> float:
    """Bisection in log(lam) for N(lam)/lam = n over a given spectrum."""
    if bracket is None:
        bracket = (1e-8, float(gram.k_matrix.diagonal().max()))
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi < math.inf):
        raise InputError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    r_lo, r_hi = _n_eff(spectrum, lo) / lo, _n_eff(spectrum, hi) / hi
    if not (r_lo > gram.n > r_hi):
        raise InputError("bracket does not straddle the balance point: "
                         f"N/lam at lo={lo!r} is {r_lo!r}, at hi={hi!r} is {r_hi!r}, "
                         f"target n={gram.n}")
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)
        if _n_eff(spectrum, mid) / mid > gram.n:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            break
    return math.sqrt(lo * hi)


def find_lambda_star(gram: GramSystem, bracket: tuple[float, float] | None = None,
                     rel_tol: float = 1e-9, max_iter: int = 200) -> float:
    """Solve N(lam) / lam = n by bisection in log(lam).

    The default bracket is (1e-8, max diagonal of K); the map
    lam -> N(lam)/lam is strictly decreasing, so the root is unique
    inside any bracket on which the map straddles n.
    """
    spectrum = np.clip(_eigensystem(gram)[0], 0.0, None)
    return _balance_point(gram, spectrum, bracket, rel_tol, max_iter)


@dataclass(frozen=True)
class CapacityProfile:
    """Capacity diagnostics tabulated over a decreasing grid of strengths."""

    lambdas: np.ndarray
    n_eff: np.ndarray
    n_inf: np.ndarray
    lambda_star: float | None

    def to_dict(self) -> dict:
        return {"lambdas": self.lambdas.tolist(), "n_eff": self.n_eff.tolist(),
                "n_inf": self.n_inf.tolist(), "lambda_star": self.lambda_star}


def default_probe_grid(xp: SampleSet, count: int = 200) -> np.ndarray:
    """Probe points: a uniform grid over the sample's bounding box, inflated 20%.

    In one dimension this is a plain linspace; in d dimensions the grid
    takes ceil(count**(1/d)) points per axis.
    """
    low = xp.points.min(axis=0)
    high = xp.points.max(axis=0)
    center = (low + high) / 2.0
    half = np.maximum((high - low) / 2.0, 1e-8) * 1.2
    low, high = center - half, center + half
    if xp.dim == 1:
        return np.linspace(low[0], high[0], count).reshape(-1, 1)
    per_axis = max(2, math.ceil(count ** (1.0 / xp.dim)))
    axes = [np.linspace(low[d], high[d], per_axis) for d in range(xp.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def capacity_profile(gram: GramSystem, spec: KernelSpec, xp: SampleSet,
                     lambdas, probe_points=None) -> CapacityProfile:
    """Tabulate N(lam), the sup-capacity estimate, and the balance point.

    ``lambdas`` must be finite and positive; it is sorted into decreasing
    order.  ``lambda_star`` is None when the default bracket does not
    straddle the balance point (tiny samples), rather than an error.
    """
    lams = np.sort(_strengths(lambdas))[::-1]
    scan = np.vstack([_probes(xp, default_probe_grid(xp) if probe_points is None
                              else probe_points), xp.points])
    t, leverages = _leverages(gram, spec, xp, lams, scan)
    spectrum = np.clip(t, 0.0, None)
    n_eff = np.array([_n_eff(spectrum, lam) for lam in lams])
    try:
        star = _balance_point(gram, spectrum, None)
    except InputError:
        star = None
    return CapacityProfile(lambdas=lams, n_eff=n_eff, n_inf=leverages.max(axis=1),
                           lambda_star=star)


def save_profile_csv(profile: CapacityProfile, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["lambda", "n_eff", "n_inf"])
        for lam, ne, ni in zip(profile.lambdas, profile.n_eff, profile.n_inf):
            writer.writerow([repr(float(lam)), repr(float(ne)), repr(float(ni))])


def save_profile_json(profile: CapacityProfile, path) -> None:
    with open(path, "w") as handle:
        json.dump(profile.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")
