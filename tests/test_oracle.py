"""The single (lam, k) fit against an exact oracle: the same recursion at 40 digits.

The oracle takes the float64 sample points as exact.  It forms every kernel
value with mpmath at 50 digits and runs the k-step recursion

    (n lam I + K) v_l = n lam v_{l-1} + f_bar,        l = 1 .. k,

in fixed point with ``BITS`` = 140 fraction bits (42 digits) on Python
integers, by elimination without pivoting (the matrix is positive definite).
mpmath's own matrices take about a second per 70 x 70 solve; the integers
take a few hundredths.

Each output of the float64 fit is bounded by k kappa eps times its scale:
k solves, each accurate to kappa eps relative to the values, kappa being the
2-norm condition number of n lam I + K.  The scale of the values and of alpha
is their largest entry; that of a value on the grid is the sum of the sizes of
the terms it adds up, sum_i |alpha_i| k(x, x_i) + mu f(x).
"""

from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp

import ratioreg as rr

BITS = 140
EPS = np.finfo(float).eps


def fixed(value) -> int:
    """An mpmath number as the nearest integer multiple of 2^-BITS, in units of it."""
    return int(mp.nint(mp.ldexp(value, BITS)))


def to_float(values) -> np.ndarray:
    return np.array([value / (1 << BITS) for value in values])  # int / int rounds once


def exact_kernel(spec: rr.KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a_i, b_j) at 50 digits, in fixed point."""
    with mp.workdps(50):
        scale = 2 * mp.mpf(spec.bandwidth) ** 2
        return np.array([[fixed(spec.offset + mp.exp(-sum(
            (mp.mpf(p) - mp.mpf(q)) ** 2 for p, q in zip(x, y)) / scale)) for y in b]
            for x in a], dtype=object)


def shifted_solver(k_exact: np.ndarray, shift: int):
    """Solves (shift I + K) x = b in fixed point, from one elimination."""
    n = len(k_exact)
    upper = k_exact.copy()
    upper[range(n), range(n)] += shift
    lower = np.zeros((n, n), dtype=object)
    for i in range(n):
        lower[i + 1:, i] = (upper[i + 1:, i] << BITS) // upper[i, i]
        upper[i + 1:, i:] -= (lower[i + 1:, i, None] * upper[None, i, i:]) >> BITS

    def solve(rhs: np.ndarray) -> np.ndarray:
        y = rhs.copy()
        for i in range(n):
            y[i + 1:] -= (lower[i + 1:, i] * y[i]) >> BITS
        x = np.zeros(n, dtype=object)
        for i in reversed(range(n)):
            x[i] = ((y[i] - ((upper[i, i + 1:] * x[i + 1:]).sum() >> BITS)) << BITS) \
                // upper[i, i]
        return x

    return solve


def _samples(dim):
    """d = 1 on the low-rank path (rank 27 of 70); d = 2 past the pivot cap (dense)."""
    if dim == 1:
        return rr.sample_normal(2.0, 5.0, 70, 7, "p"), rr.sample_normal(3.0, 0.5, 60, 8, "q")
    rng = np.random.default_rng(5)
    return (rr.SampleSet(rng.normal(0.0, 2.0, (64, 2)), "p"),
            rr.SampleSet(rng.normal(1.0, 1.0, (60, 2)), "q"))


@pytest.mark.parametrize("dim", [1, 2])
def test_fit_is_within_k_kappa_eps_of_the_exact_recursion(dim):
    spec = rr.KernelSpec()
    xp, xq = _samples(dim)
    gram = rr.assemble_gram(spec, xp, xq)
    n, m = xp.n, xq.n
    grid = np.linspace(xp.points.min(axis=0) - 1.0, xp.points.max(axis=0) + 1.0, 15)
    k_exact = exact_kernel(spec, xp.points, xp.points)
    f_bar = np.array([row.sum() * n // m for row in exact_kernel(spec, xp.points, xq.points)])
    grid_ref = exact_kernel(spec, grid, xp.points)
    grid_target = np.array([row.sum() // m for row in exact_kernel(spec, grid, xq.points)])
    eigenvalues = np.linalg.eigvalsh(rr.kernel_matrix(spec, xp.points, xp.points))
    for lam in (0.1, 1e-3, 1e-6):
        with mp.workdps(50):
            n_lam, mus = fixed(mp.mpf(n) * lam), {k: fixed(mp.mpf(k) / lam) for k in (1, 3)}
        kappa = (n * lam + eigenvalues[-1]) / (n * lam + max(eigenvalues[0], 0.0))
        solve = shifted_solver(k_exact, n_lam)
        values = np.zeros(n, dtype=object)
        total = np.zeros(n, dtype=object)
        for k in (1, 2, 3):
            values = solve(f_bar + ((n_lam * values) >> BITS))
            total += values
            if k == 2:
                continue
            alpha = -(total << BITS) // n_lam
            target_part = (mus[k] * grid_target) >> BITS
            on_grid = ((grid_ref * alpha).sum(axis=1) >> BITS) + target_part
            grid_scale = ((grid_ref * abs(alpha)).sum(axis=1) >> BITS) + target_part
            model = rr.fit_iterated_lavrentiev(gram, lam, k)
            bound = k * kappa * EPS
            for got, want, scale in (
                    (model.values_at_xp, to_float(values), None),
                    (model.alpha, to_float(alpha), None),
                    (rr.evaluate_batch(model, grid), to_float(on_grid), to_float(grid_scale))):
                scale = np.abs(want).max() if scale is None else scale.max()
                assert np.abs(got - want).max() <= bound * scale, (lam, k)
