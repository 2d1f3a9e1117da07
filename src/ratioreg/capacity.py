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

Every diagnostic takes one ``GramSystem``, the holder of the kernel and
the reference sample (a target sample is not needed), and all of it
comes from one eigensystem of K/n, r eigenpairs (t, U) with
the complement of span(U) as eigenvalue 0 (``GramSystem.eigensystem``):

    C_lam(x) = ( k(x, x) - (1/n) * sum_i (U^T k_x)_i^2 / (lam + t_i)
                         - |k_x - U U^T k_x|^2 / (n lam) ) / lam,

whose last term vanishes when r = n.  A profile over L strengths and p
probes costs one eigensystem, products over blocks of probes and an
(L x r) @ (r x p) filter sum, in O(n r) floats plus one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, positive_real, save_csv, whole_number
from .kernel import (GramSystem, SampleSet, _as_points, _block_height, _check_shift,
                     _kernel_values, _outside_span)

# The balance-point bisection stops at this relative bracket width or step count.
_BISECTION_TOL = 1e-9
_BISECTION_STEPS = 200


def _n_eff(spectrum: np.ndarray, lam: float) -> float:
    return float(np.sum(spectrum / (lam + spectrum)))


def _probes(gram: GramSystem, points) -> np.ndarray:
    probes = _as_points(points, name="probe_points")
    if probes.shape[0] == 0:
        raise InputError("probe_points must be non-empty")
    if probes.shape[1] != gram.xp.dim:
        raise InputError(f"probes have dimension {probes.shape[1]}, sample has {gram.xp.dim}")
    return probes


def _leverages(gram: GramSystem, lams: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """C_lam as a (len(lams), len(probes)) array; NumericalError where 1/lam overflows.

    Each block of probe kernel values is projected off span(U) in place, so a block
    holds its kernel values and one product of their shape at a time.
    """
    t, u = gram.eigensystem[:2]
    _check_shift(float(lams.min()), t)
    quad = np.empty((lams.size, probes.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, not warned
        inverse = 1.0 / (lams[:, None] + t)
        height = _block_height(gram.n)
        for start in range(0, len(probes), height):
            cross = _kernel_values(gram.kernel, gram.xp.points, probes[start:start + height])
            weights = u.T @ cross
            outside = _outside_span(u, cross, weights)
            np.square(weights, out=weights)
            quad[:, start:start + height] = inverse @ weights + np.outer(
                1.0 / lams, np.einsum("ip,ip->p", outside, outside))
        leverages = (gram.kernel.diagonal_value() - quad / gram.n) / lams[:, None]
    if not np.isfinite(leverages).all():
        raise NumericalError("non-finite regularized leverage", lam=float(lams.min()))
    return leverages


def christoffel(gram: GramSystem, lam: float, x) -> float:
    """Regularized leverage C_lam(x) of a single point.

    Non-negative in exact arithmetic.  At the strengths the tests check (lam >= 0.01)
    computed values stay above -1e-10.  Far below the pivot truncation level of
    ``GramSystem.eigensystem`` the truncation error over lam takes over, and values are
    returned as computed: they can be large and negative.  ``capacity_profile`` refuses
    a strength whose supremum n_inf comes out negative.
    """
    probe = _probes(gram, _as_points(x, name="x").reshape(1, -1))
    return float(_leverages(gram, np.array([positive_real(lam, "lam")]), probe)[0, 0])


def effective_dimension(gram: GramSystem, lam: float) -> float:
    """N(lam) = sum_i t_i / (lam + t_i) over the spectrum of K/n.

    Strictly positive, below n, and decreasing in lam.
    """
    lam = positive_real(lam, "lam")
    return _n_eff(gram.spectrum(), lam)


def find_lambda_star(gram: GramSystem) -> float:
    """Solve N(lam) / lam = n by bisection in log(lam) on (1e-8, k(x, x)).

    k(x, x) is the largest diagonal entry of K; the map lam -> N(lam)/lam
    is strictly decreasing, so the root is unique when the map straddles n
    on that bracket, and InputError says so when it does not.
    """
    spectrum = gram.spectrum()
    lo, hi = 1e-8, gram.kernel.diagonal_value()
    r_lo, r_hi = _n_eff(spectrum, lo) / lo, _n_eff(spectrum, hi) / hi
    if not (r_lo > gram.n > r_hi):
        raise InputError("bracket does not straddle the balance point: "
                         f"N/lam at lo={lo!r} is {r_lo!r}, at hi={hi!r} is {r_hi!r}, "
                         f"target n={gram.n}")
    for _ in range(_BISECTION_STEPS):
        mid = math.sqrt(lo * hi)
        if _n_eff(spectrum, mid) / mid > gram.n:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_TOL * mid:
            break
    return math.sqrt(lo * hi)


@dataclass(frozen=True)
class CapacityProfile:
    """Capacity diagnostics tabulated over a decreasing grid of strengths."""

    lambdas: np.ndarray
    n_eff: np.ndarray
    n_inf: np.ndarray
    lambda_star: float | None


def default_probe_grid(xp: SampleSet, count: int = 200) -> np.ndarray:
    """Probe points: a uniform grid over the sample's bounding box, inflated 20%.

    The grid takes max(2, ceil(count**(1/d))) points per axis: in one dimension a
    linspace of ``count`` points, or of the box's two ends for a count of 1.
    InputError, before any array is built, when that is more than 2^20 points.
    """
    count = whole_number(count, "count")
    per_axis = max(2, math.ceil(count ** (1.0 / xp.dim)))
    if per_axis ** xp.dim > 1 << 20:  # keeps every default grid up to d = 20
        raise InputError(f"the default probe grid in d = {xp.dim} would hold "
                         f"{per_axis ** xp.dim} points, more than 2^20")
    low = xp.points.min(axis=0)
    high = xp.points.max(axis=0)
    # halved before adding: the same bits, and an overflow only past the float range
    with np.errstate(over="ignore"):
        center = low / 2.0 + high / 2.0
        half = np.maximum(high / 2.0 - low / 2.0, 1e-8) * 1.2
        low, high = center - half, center + half
        if not np.isfinite(high - low).all():
            raise InputError("the probe box (the sample's bounding box inflated 20%) overflows")
    axes = [np.linspace(low[d], high[d], per_axis) for d in range(xp.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def capacity_profile(gram: GramSystem, lambdas, probe_points=None) -> CapacityProfile:
    """Tabulate N(lam), the sup-capacity estimate, and the balance point.

    ``lambdas`` must be finite and positive; it is sorted into decreasing
    order.  ``lambda_star`` is None, not an error, when N(lam)/lam does not
    straddle n on (1e-8, k(x, x)).  As the spectrum sums to k(x, x), N/lam < 1
    at the top and N(1e-8) >= k(x, x) / (k(x, x) + 1e-8): that takes n > ~1e8.
    A negative n_inf, which the pivot truncation gives far below its level,
    raises NumericalError naming the largest such strength.
    """
    single = isinstance(lambdas, str) or not np.iterable(lambdas)
    values = [lambdas] if single else list(lambdas)
    if not values:
        raise InputError("lambdas must hold at least one strength")
    lams = np.sort([positive_real(lam, "lam") for lam in values])[::-1]
    scan = np.vstack([default_probe_grid(gram.xp) if probe_points is None
                      else _probes(gram, probe_points), gram.xp.points])
    leverages = _leverages(gram, lams, scan)
    spectrum = gram.spectrum()
    n_eff = np.array([_n_eff(spectrum, lam) for lam in lams])
    try:
        star = find_lambda_star(gram)
    except InputError:
        star = None
    n_inf = leverages.max(axis=1)
    if (n_inf < 0.0).any():  # a supremum of leverages, which are non-negative
        lam = float(lams[np.argmax(n_inf < 0.0)])
        raise NumericalError("negative sup-norm capacity: the strength is below what the "
                             "truncated eigensystem resolves", lam=lam)
    return CapacityProfile(lambdas=lams, n_eff=n_eff, n_inf=n_inf, lambda_star=star)


def save_profile_csv(profile: CapacityProfile, path) -> None:
    save_csv([["lambda", "n_eff", "n_inf"],
              *zip(profile.lambdas, profile.n_eff, profile.n_inf)], path)
