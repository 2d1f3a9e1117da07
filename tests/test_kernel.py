from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratioreg as rr
from ratioreg.kernel import _row_blocks, reference_gram

# k(x, y) = 1 + exp(-(x-y)^2 / 2) at squared distance 2 -> 1 + e^{-1}
ONE_PLUS_E_MINUS_1 = 1.3678794411714423


def test_eval_default_kernel_diagonal(default_kernel):
    assert rr.eval_kernel(default_kernel, 0.3, 0.3) == 2.0
    assert default_kernel.diagonal_value() == 2.0


def test_eval_default_kernel_at_root_two(default_kernel):
    value = rr.eval_kernel(default_kernel, 0.0, math.sqrt(2.0))
    assert value == pytest.approx(ONE_PLUS_E_MINUS_1, rel=1e-15)


def test_eval_gaussian_family_has_no_offset():
    spec = rr.KernelSpec(family="gaussian")
    assert spec.offset == 0.0
    assert rr.eval_kernel(spec, 1.0, 1.0) == 1.0
    assert spec.diagonal_value() == 1.0


def test_eval_bandwidth_scaling():
    spec = rr.KernelSpec(bandwidth=2.0)
    # squared distance 4 over 2 * bandwidth^2 = 8 -> exponent -0.5
    assert rr.eval_kernel(spec, 0.0, 2.0) == pytest.approx(1.0 + math.exp(-0.5), rel=1e-15)


def test_eval_dimension_mismatch(default_kernel):
    with pytest.raises(rr.InputError):
        rr.eval_kernel(default_kernel, [0.0, 1.0], [0.0])


def test_custom_ref_kernel_matches_callable():
    calls = []

    def ref(a, b):
        calls.append((a, b))
        return float(a @ b) + 1.0

    spec = rr.KernelSpec(family="custom_ref", ref=ref)
    assert rr.eval_kernel(spec, [1.0, 2.0], [3.0, 4.0]) == 12.0
    pts = np.array([[1.0], [2.0], [0.5]])
    calls.clear()
    mat = rr.kernel_matrix(spec, pts, pts[:2])
    expected = pts @ pts[:2].T + 1.0
    assert np.allclose(mat, expected, rtol=0, atol=0)
    # one call of the callable per pair, through the explicit loop
    assert len(calls) == 6


def _broadcast_kernel_matrix(spec, a, b):
    """The (a, b, d) broadcast form that kernel_matrix replaced, as a reference."""
    diff = a[:, None, :] - b[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return spec.offset + np.exp(-sq / (2.0 * spec.bandwidth**2))


def test_kernel_matrix_matches_broadcast_formula(rng):
    """Bitwise at d = 1; at d > 1 only the order of the coordinate sum moves."""
    for spec in (rr.KernelSpec(), rr.KernelSpec(bandwidth=0.37),
                 rr.KernelSpec(family="gaussian", bandwidth=2.5)):
        for dim in (1, 2, 3):
            a = rng.normal(size=(301, dim)) * 3.0
            b = rng.normal(size=(257, dim)) * 3.0
            got = rr.kernel_matrix(spec, a, b)
            expected = _broadcast_kernel_matrix(spec, a, b)
            if dim == 1:
                assert np.array_equal(got, expected)
            else:
                # A few ulps in the exponent x move exp(-x) by about x exp(-x) eps,
                # at most eps / e: 1e-15 of the kernel's diagonal value.
                np.testing.assert_allclose(got, expected, rtol=0,
                                           atol=1e-15 * spec.diagonal_value())


def test_kernel_spec_validation():
    with pytest.raises(rr.InputError):
        rr.KernelSpec(family="polynomial")
    with pytest.raises(rr.InputError):
        rr.KernelSpec(bandwidth=0.0)
    with pytest.raises(rr.InputError):
        rr.KernelSpec(offset=-0.5)
    with pytest.raises(rr.InputError):
        rr.KernelSpec(family="gaussian", offset=1.0)
    with pytest.raises(rr.InputError):
        rr.KernelSpec(family="custom_ref")


def test_custom_ref_not_serializable():
    spec = rr.KernelSpec(family="custom_ref", ref=lambda a, b: 1.0)
    with pytest.raises(rr.InputError):
        spec.to_dict()
    with pytest.raises(rr.InputError):
        spec.diagonal_value()


def test_kernel_spec_round_trip(default_kernel):
    assert rr.KernelSpec.from_dict(default_kernel.to_dict()) == default_kernel


def test_sample_set_promotes_1d():
    sample = rr.SampleSet([1.0, 2.0, 3.0], "p")
    assert sample.points.shape == (3, 1)
    assert sample.n == 3 and sample.dim == 1


def test_sample_set_validation():
    with pytest.raises(rr.InputError):
        rr.SampleSet(np.zeros((0, 1)), "p")
    with pytest.raises(rr.InputError):
        rr.SampleSet([1.0], "x")
    with pytest.raises(rr.InputError):
        rr.SampleSet([np.nan], "p")
    with pytest.raises(rr.InputError):
        rr.SampleSet(np.zeros((3, 0)), "p")


def test_sample_set_points_read_only():
    sample = rr.SampleSet([1.0, 2.0], "p")
    with pytest.raises(ValueError):
        sample.points[0, 0] = 9.0


def test_gram_symmetry_is_bitwise(default_kernel, rng):
    """The kernel matrix comes out exactly symmetric with no mirroring step."""
    for dim in (1, 2, 3):
        xp = rr.SampleSet(rng.normal(size=(301, dim)), "p")
        xq = rr.SampleSet(rng.normal(size=(11, dim)), "q")
        for gram in (rr.assemble_gram(default_kernel, xp, xq),
                     rr.reference_gram(default_kernel, xp)):
            assert np.array_equal(gram.k_matrix, gram.k_matrix.T)


def test_f_bar_from_row_blocks_is_bitwise(default_kernel, rng):
    """f_bar summed block by block equals the sums of the whole cross kernel."""
    xp = rr.SampleSet(rng.normal(size=(700, 1)) * 3.0, "p")
    xq = rr.SampleSet(rng.normal(size=(2000, 1)), "q")
    assert len(list(_row_blocks(xp.n, xq.n))) >= 2
    gram = rr.assemble_gram(default_kernel, xp, xq)
    cross = rr.kernel_matrix(default_kernel, xp.points, xq.points)
    assert np.array_equal(gram.f_bar, (xp.n / xq.n) * cross.sum(axis=1))


def test_assemble_gram_memory_is_bounded(default_kernel, rng):
    """At n = m = 3000 the call holds K plus one block, under 2 n^2 floats."""
    n = 3000
    xp = rr.SampleSet(rng.normal(size=(n, 1)) * 3.0, "p")
    xq = rr.SampleSet(rng.normal(size=(n, 1)), "q")
    tracemalloc.start()
    try:
        rr.assemble_gram(default_kernel, xp, xq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8


def test_gram_diagonal_is_offset_plus_one(default_kernel, small_pair):
    _, _, gram = small_pair
    assert np.all(gram.k_matrix.diagonal() == default_kernel.offset + 1.0)


def test_gram_frozen_f_bar_example(default_kernel):
    # n=2, m=1: f_bar[i] = (n/m) * k(x_i, 0) with x = (0, sqrt 2)
    xp = rr.SampleSet([0.0, math.sqrt(2.0)], "p")
    xq = rr.SampleSet([0.0], "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    assert gram.f_bar[0] == 4.0
    assert gram.f_bar[1] == pytest.approx(2.0 * ONE_PLUS_E_MINUS_1, rel=1e-15)


def test_gram_tag_and_dim_validation(default_kernel):
    xp = rr.SampleSet([0.0, 1.0], "p")
    xq2 = rr.SampleSet([[0.0, 1.0]], "q")
    with pytest.raises(rr.InputError):
        rr.assemble_gram(default_kernel, xp, rr.SampleSet([0.0], "p"))
    with pytest.raises(rr.InputError):
        rr.assemble_gram(default_kernel, rr.SampleSet([0.0], "q"), xq2)
    with pytest.raises(rr.InputError):
        rr.assemble_gram(default_kernel, xp, xq2)


def test_gram_system_shape_validation():
    with pytest.raises(rr.InputError):
        rr.GramSystem(k_matrix=np.eye(3), f_bar=np.zeros(2), n=3, m=1)
    with pytest.raises(rr.InputError):
        rr.GramSystem(k_matrix=np.eye(3), f_bar=np.zeros(3), n=2, m=1)
    with pytest.raises(rr.InputError):
        rr.GramSystem(k_matrix=np.eye(3), f_bar=np.zeros(3), n=3, m=0)


def test_reference_gram_matches_assembled(default_kernel, small_pair):
    xp, xq, gram = small_pair
    ref = reference_gram(default_kernel, xp)
    assert np.array_equal(ref.k_matrix, gram.k_matrix)
    assert np.all(ref.f_bar == 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(1, 3))
def test_gram_matrix_is_psd(seed, n, dim):
    spec = rr.KernelSpec()
    points = np.random.Generator(np.random.PCG64(seed)).normal(size=(n, dim)) * 3.0
    gram = reference_gram(spec, rr.SampleSet(points, "p"))
    smallest = np.linalg.eigvalsh(gram.k_matrix)[0]
    assert smallest >= -gram.psd_tolerance()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20), m=st.integers(1, 20))
def test_f_bar_entries_bounded(seed, n, m):
    spec = rr.KernelSpec()
    gen = np.random.Generator(np.random.PCG64(seed))
    xp = rr.SampleSet(gen.normal(size=(n, 1)), "p")
    xq = rr.SampleSet(gen.normal(size=(m, 1)), "q")
    gram = rr.assemble_gram(spec, xp, xq)
    assert np.all(gram.f_bar >= 0.0)
    assert np.all(gram.f_bar <= n * (spec.offset + 1.0))


def test_samples_csv_round_trip(tmp_path, rng):
    sample = rr.SampleSet(rng.normal(size=(13, 2)), "p", seed=7)
    path = tmp_path / "xp.csv"
    rr.save_samples_csv(sample, path)
    loaded = rr.load_samples_csv(path, measure_tag="p", seed=7)
    assert np.array_equal(loaded.points, sample.points)
    assert loaded.measure_tag == "p" and loaded.seed == 7


def test_samples_csv_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\noops\n")
    with pytest.raises(rr.InputError):
        rr.load_samples_csv(path, measure_tag="p")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(rr.InputError):
        rr.load_samples_csv(ragged, measure_tag="p")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(rr.InputError):
        rr.load_samples_csv(empty, measure_tag="p")


def test_samples_json_round_trip(tmp_path, rng):
    sample = rr.SampleSet(rng.normal(size=(5, 3)), "q", seed=99)
    path = tmp_path / "xq.json"
    rr.save_samples_json(sample, path)
    loaded = rr.load_samples_json(path)
    assert np.array_equal(loaded.points, sample.points)
    assert loaded.measure_tag == "q" and loaded.seed == 99
    # file is plain JSON with sorted keys
    raw = json.loads(path.read_text())
    assert list(raw) == sorted(raw)
