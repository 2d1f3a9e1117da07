from __future__ import annotations

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ratioreg as rr
from ratioreg import kernel
from ratioreg.capacity import save_profile_csv
from ratioreg.kernel import kernel_matrix

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def gram():
    """A capacity-only system: n = 60 reference points, no target sample."""
    return rr.assemble_gram(rr.KernelSpec(), rr.sample_normal(2.0, 5.0, 60, 11, "p"))


def test_single_point_leverage_closed_form(default_kernel):
    # one point, k(x,x) = 2: C_lam = 2 / (lam + 2)
    xp = rr.SampleSet([[0.0]], "p")
    gram = rr.assemble_gram(default_kernel, xp)
    assert rr.christoffel(gram, 2.0, [0.0]) == pytest.approx(0.5, abs=1e-14)
    assert rr.christoffel(gram, 0.5, [0.0]) == pytest.approx(0.8, abs=1e-14)


def test_mean_leverage_equals_effective_dimension(gram):
    """Averaging the regularized leverage over the sample recovers N(lam)."""
    xp = gram.xp
    for lam in (0.9, 0.3, 0.1, 0.05):
        mean_leverage = np.mean(
            [rr.christoffel(gram, lam, x) for x in xp.points])
        assert abs(mean_leverage - rr.effective_dimension(gram, lam)) <= 1e-8


def test_effective_dimension_monotone_and_below_n(gram):
    lams = np.geomspace(0.005, 2.0, 30)
    values = [rr.effective_dimension(gram, lam) for lam in lams]
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in lam
    assert all(0.0 < v < gram.n for v in values)


def test_ratio_strictly_decreasing(gram):
    lams = np.geomspace(0.01, 2.0, 40)
    ratios = [rr.effective_dimension(gram, lam) / lam for lam in lams]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_leverage_non_negative(gram):
    probes = np.linspace(-6.0, 10.0, 100)
    for lam in (0.9, 0.1, 0.01):
        values = [rr.christoffel(gram, lam, x) for x in probes]
        assert min(values) >= -1e-10


def test_sup_estimate_dominates_mean(gram):
    probes = np.linspace(-6.0, 10.0, 50).reshape(-1, 1)
    for lam in (0.5, 0.1):
        sup = rr.capacity_profile(gram, [lam], probes).n_inf[0]
        assert sup >= rr.effective_dimension(gram, lam)


def test_sup_estimate_includes_sample_points(gram):
    xp = gram.xp
    lam = 0.2
    at_samples = max(rr.christoffel(gram, lam, x) for x in xp.points)
    # probe set far away from the data: the in-sample scan still counts
    sup = rr.capacity_profile(gram, [lam], [[100.0]]).n_inf[0]
    assert sup >= at_samples


def test_lambda_star_scalar_analytic_case():
    """One sample point with k(x,x) = 1: N(l)/l = 1/(l(l+1)) = 1 at the
    golden-ratio conjugate."""
    spec = rr.KernelSpec(family="gaussian")
    xp = rr.SampleSet([[0.0]], "p")
    gram = rr.assemble_gram(spec, xp)
    star = rr.find_lambda_star(gram)
    assert abs(star - GOLDEN_RATIO_CONJUGATE) <= 1e-6


def test_lambda_star_balances_ratio(gram):
    star = rr.find_lambda_star(gram)
    assert abs(rr.effective_dimension(gram, star) / star - gram.n) <= 1e-4 * gram.n


def test_lambda_star_bad_bracket_reports_endpoints(gram, dense_twin):
    """A spectrum of 1e-30 / n keeps N(lam)/lam below n on all of (1e-8, k(x, x)).

    No real kernel gets there below n of about 1e8 (``capacity_profile``),
    so the fault is injected as K = 1e-30 I.  The probes still read the real
    kernel, |k_x|^2 <= 4 n, so C_lam = (2 - |k_x|^2 / (n lam)) / lam can be negative
    below lam = 2, and the profile refuses it there.
    """
    faint = dense_twin(gram, k_matrix=1e-30 * np.eye(gram.n))
    with pytest.raises(rr.InputError, match="does not straddle") as info:
        rr.find_lambda_star(faint)
    message = str(info.value)
    assert "lo=1e-08" in message and "hi=2.0" in message and f"n={gram.n}" in message
    with pytest.raises(rr.NumericalError, match="negative sup-norm capacity"):
        rr.capacity_profile(faint, [0.5])
    assert rr.capacity_profile(faint, [2.0]).lambda_star is None


def test_capacity_validation(gram):
    with pytest.raises(rr.InputError):
        rr.christoffel(gram, 0.0, [0.0])
    with pytest.raises(rr.InputError):
        rr.effective_dimension(gram, -1.0)
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, [0.1], np.zeros((0, 1)))
    with pytest.raises(rr.InputError):
        rr.christoffel(gram, 0.1, [0.0, 1.0])
    with pytest.raises(rr.InputError):
        rr.christoffel(gram, [0.1, 0.2], [0.0])
    with pytest.raises(rr.InputError):
        rr.effective_dimension(gram, [0.1, 0.2])
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, [[0.1, 0.2]], [[0.0]])


def test_profile_tabulates_decreasing(gram):
    profile = rr.capacity_profile(gram, np.geomspace(0.05, 1.0, 8))
    assert all(a > b for a, b in zip(profile.lambdas, profile.lambdas[1:]))
    # n_eff grows as lam shrinks
    assert all(a < b for a, b in zip(profile.n_eff, profile.n_eff[1:]))
    assert np.all(profile.n_inf >= profile.n_eff)
    assert profile.lambda_star is not None
    assert profile.lambda_star == pytest.approx(rr.find_lambda_star(gram), rel=1e-12)


def test_profile_csv_round_trip(tmp_path, gram):
    profile = rr.capacity_profile(gram, [0.5, 0.1, 0.9])
    path = tmp_path / "profile.csv"
    save_profile_csv(profile, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lambda", "n_eff", "n_inf"]
    assert len(rows) == 4
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back[:, 0], profile.lambdas)
    assert np.array_equal(back[:, 1], profile.n_eff)


def test_profile_validation(gram):
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, [])
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, [0.5, -0.1])


def test_default_probe_grid_covers_inflated_box():
    xp = rr.SampleSet(np.array([[0.0], [10.0]]), "p")
    grid = rr.default_probe_grid(xp, count=50)
    assert grid.shape == (50, 1)
    assert grid.min() == pytest.approx(-1.0, abs=1e-12)
    assert grid.max() == pytest.approx(11.0, abs=1e-12)


@pytest.mark.parametrize("count", [2, 50, 200, 201])
def test_default_probe_grid_is_a_linspace_in_one_dimension(count):
    """At d = 1 the grid has the bits of a linspace over the box inflated 20%."""
    points = rr.sample_normal(2.0, 5.0, 5, 3, "p").points
    low, high = points.min(), points.max()
    half = (high / 2.0 - low / 2.0) * 1.2
    center = low / 2.0 + high / 2.0
    want = np.linspace(center - half, center + half, count).reshape(-1, 1)
    grid = rr.default_probe_grid(rr.SampleSet(points, "p"), count)
    assert grid.dtype == want.dtype and grid.shape == want.shape
    assert grid.tobytes() == want.tobytes()


def test_default_probe_grid_of_one_point_spans_the_box():
    """A count of 1 gives the box's two ends, in one dimension as in every other."""
    xp = rr.SampleSet(np.array([[0.0], [10.0]]), "p")
    assert rr.default_probe_grid(xp, count=1).ravel().tolist() == [-1.0, 11.0]


def test_default_probe_grid_multidimensional():
    xp = rr.SampleSet(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]), "p")
    grid = rr.default_probe_grid(xp, count=200)
    assert grid.shape[1] == 2
    assert grid.shape[0] == 15 * 15  # ceil(sqrt(200)) per axis


def test_default_probe_grid_past_2_to_the_20_points_is_refused():
    """At d = 40 (2^40 points, and more axes than ``np.meshgrid`` takes) the grid and
    the profile raise InputError naming d and the point count; 2^20 points is the most
    a grid holds."""
    wide = rr.SampleSet(np.arange(200.0).reshape(5, 40), "p")
    with pytest.raises(rr.InputError, match=rf"d = 40 would hold {2**40} points"):
        rr.default_probe_grid(wide)
    with pytest.raises(rr.InputError, match="d = 40"):
        rr.capacity_profile(rr.assemble_gram(rr.KernelSpec(), wide), [0.1])
    line = rr.SampleSet([0.0, 1.0], "p")
    assert rr.default_probe_grid(line, count=2**20).shape == (2**20, 1)
    with pytest.raises(rr.InputError, match=rf"d = 1 would hold {2**20 + 1} points"):
        rr.default_probe_grid(line, count=2**20 + 1)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_non_finite_strengths_rejected(gram, lam):
    with pytest.raises(rr.InputError):
        rr.christoffel(gram, lam, [0.0])
    with pytest.raises(rr.InputError):
        rr.effective_dimension(gram, lam)
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, lam, [[0.0]])
    with pytest.raises(rr.InputError):
        rr.capacity_profile(gram, [0.5, lam])


def _dense_leverage(gram, spec, xp, lam, points):
    k_cross = kernel_matrix(spec, xp.points, points)
    k_matrix = kernel_matrix(spec, xp.points, xp.points)
    solved = np.linalg.solve(lam * np.eye(gram.n) + k_matrix / gram.n, k_cross)
    quad = np.einsum("ip,ip->p", k_cross, solved) / gram.n
    return (spec.diagonal_value() - quad) / lam


def test_spectral_leverage_matches_dense_solve():
    """The eigenbasis leverage agrees with a direct solve, down to lam < 1e-3.

    Pointwise, k(x, x) - quad cancels to lam * C_lam(x), so single values
    carry a relative error of order eps / (lam * C_lam) in either method;
    the comparison is therefore scaled by the largest leverage.
    """
    spec = rr.KernelSpec()
    xp = rr.sample_normal(2.0, 5.0, 200, 7, "p")
    gram = rr.assemble_gram(spec, xp)
    probes = np.linspace(-10.0, 14.0, 41).reshape(-1, 1)
    scan = np.vstack([probes, xp.points])
    profile = rr.capacity_profile(gram, [0.9, 0.1, 0.01, 5e-4], probes)
    for lam, n_inf in zip(profile.lambdas, profile.n_inf):
        reference = _dense_leverage(gram, spec, xp, lam, scan)
        scale = reference.max()
        assert abs(n_inf - scale) <= 1e-12 * scale
        points = scan[::12]
        single = [rr.christoffel(gram, lam, x) for x in points]
        assert np.max(np.abs(single - reference[::12])) <= 1e-12 * scale


def test_profile_memory_is_four_floor_blocks_and_o_nr():
    """At n = 1600 the 1,800-column scan runs in 64-row blocks of the probe kernel, each
    projected off span(U) in place: the profile peaks below four arrays of a block's
    shape plus one n x r array (3.85 MB at r = 45).  A projection into two new arrays
    of the block's shape peaked at 4.2 MB."""
    n = 1600
    gram = rr.assemble_gram(rr.KernelSpec(), rr.sample_normal(2.0, 5.0, n, 17, "p"))
    tracemalloc.start()
    try:
        rr.capacity_profile(gram, np.geomspace(0.01, 1.0, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = kernel._BLOCK_ROW_MULTIPLE * n * 8
    assert peak < 4 * block + n * gram.eigensystem[0].size * 8


def test_one_decomposition_per_call(linalg_calls, gram):
    """Every diagnostic reads the eigensystem the system keeps: one eigh in all."""
    fresh = dataclasses.replace(gram)
    for lambdas in ([0.5], np.geomspace(0.01, 1.0, 20)):
        rr.capacity_profile(fresh, lambdas)
    rr.christoffel(fresh, 0.1, [0.0])
    rr.effective_dimension(fresh, 0.1)
    rr.find_lambda_star(fresh)
    assert linalg_calls == ["eigh"]


def test_indefinite_system_raises_numerical_error(dense_twin):
    """K/n has eigenvalues 1.5 and -0.5, so lam = 0.1 leaves a negative shift."""
    spec = rr.KernelSpec()
    xp = rr.SampleSet([[0.0], [1.0]], "p")
    gram = dense_twin(rr.assemble_gram(spec, xp), k_matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    for attempt in (lambda: rr.christoffel(gram, 0.1, [0.0]),
                    lambda: rr.capacity_profile(gram, [1.0, 0.1])):
        with pytest.raises(rr.NumericalError) as info:
            attempt()
        assert info.value.lam == 0.1
        assert info.value.smallest_eigenvalue == pytest.approx(-0.4, abs=1e-12)
    # a shift past the negative eigenvalue is positive definite again
    assert rr.christoffel(gram, 1.0, [0.0]) > 0.0


def test_overflowing_leverage_raises_numerical_error(gram):
    """At lam = 1e-300 the leverage overflows 1/lam, which NumericalError reports."""
    with pytest.raises(rr.NumericalError, match="non-finite regularized leverage") as info:
        rr.christoffel(gram, 1e-300, [0.0])
    assert info.value.lam == 1e-300


def test_failed_eigendecomposition_raises_numerical_error(monkeypatch, gram):

    def broken(matrix):
        raise np.linalg.LinAlgError("did not converge")

    fresh = dataclasses.replace(gram)
    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(rr.NumericalError):
        rr.capacity_profile(fresh, [0.5])
    with pytest.raises(rr.NumericalError):
        rr.effective_dimension(fresh, 0.5)
    monkeypatch.undo()  # a failure is not kept: the system decomposes once eigh works
    assert rr.effective_dimension(fresh, 0.5) == rr.effective_dimension(gram, 0.5)
