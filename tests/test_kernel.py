from __future__ import annotations

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratioreg as rr
from ratioreg import kernel

# k(x, y) = 1 + exp(-(x-y)^2 / 2) at squared distance 2 -> 1 + e^{-1}
ONE_PLUS_E_MINUS_1 = 1.3678794411714423


def _pair(spec, x, y):
    return float(rr.kernel_matrix(spec, [x], [y])[0, 0])


def test_eval_default_kernel_diagonal(default_kernel):
    assert _pair(default_kernel, 0.3, 0.3) == 2.0
    assert default_kernel.diagonal_value() == 2.0


def test_eval_default_kernel_at_root_two(default_kernel):
    value = _pair(default_kernel, 0.0, math.sqrt(2.0))
    assert value == pytest.approx(ONE_PLUS_E_MINUS_1, rel=1e-15)


def test_eval_gaussian_family_has_no_offset():
    spec = rr.KernelSpec(family="gaussian")
    assert spec.offset == 0.0
    assert _pair(spec, 1.0, 1.0) == 1.0
    assert spec.diagonal_value() == 1.0


def test_eval_bandwidth_scaling():
    spec = rr.KernelSpec(bandwidth=2.0)
    # squared distance 4 over 2 * bandwidth^2 = 8 -> exponent -0.5
    assert _pair(spec, 0.0, 2.0) == pytest.approx(1.0 + math.exp(-0.5), rel=1e-15)


def test_eval_dimension_mismatch(default_kernel):
    with pytest.raises(rr.InputError):
        rr.kernel_matrix(default_kernel, [[0.0, 1.0]], [[0.0]])


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
    for bad in (math.inf, math.nan, "1.0", True, None):
        with pytest.raises(rr.InputError, match="bandwidth"):
            rr.KernelSpec(bandwidth=bad)
    for bad in (math.inf, math.nan, "1.0", True):
        with pytest.raises(rr.InputError, match="offset"):
            rr.KernelSpec(offset=bad)


def test_kernel_spec_round_trip(default_kernel):
    assert rr.KernelSpec.from_dict(dataclasses.asdict(default_kernel)) == default_kernel


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
    """The kernel matrix comes out exactly symmetric with no mirroring step, and
    ``dense`` returns it as a plain writable K, equal to ``kernel_matrix``'s."""
    for dim in (1, 2, 3):
        xp = rr.SampleSet(rng.normal(size=(301, dim)), "p")
        xq = rr.SampleSet(rng.normal(size=(11, dim)), "q")
        k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
        assert np.array_equal(k_matrix, k_matrix.T)
        for gram in (rr.assemble_gram(default_kernel, xp, xq),
                     rr.assemble_gram(default_kernel, xp)):
            dense = gram.dense()
            assert dense.flags.c_contiguous and dense.flags.writeable
            assert np.array_equal(dense, k_matrix)


def test_f_bar_from_row_blocks_is_bitwise(default_kernel, rng):
    """f_bar summed block by block equals the sums of the whole cross kernel."""
    xp = rr.SampleSet(rng.normal(size=(700, 1)) * 3.0, "p")
    xq = rr.SampleSet(rng.normal(size=(2000, 1)), "q")
    assert kernel._block_height(xq.n) < xp.n  # two blocks at least
    gram = rr.assemble_gram(default_kernel, xp, xq)
    cross = rr.kernel_matrix(default_kernel, xp.points, xq.points)
    assert np.array_equal(gram.f_bar, (xp.n / xq.n) * cross.sum(axis=1))


def test_results_do_not_depend_on_the_block_budget(default_kernel, monkeypatch):
    """f_bar, a 3,072-point evaluation and a capacity profile have the same bits at
    the 64-row floor (budget 1), at the default budget and in one block (2^30)."""
    xp = rr.sample_normal(2.0, 5.0, 1000, 61, "p")
    xq = rr.sample_normal(3.0, 0.5, 400, 62, "q")
    grid = np.linspace(-8.0, 12.0, 3072).reshape(-1, 1)
    results = []
    for budget in (1, kernel._BLOCK_ELEMENTS, 1 << 30):
        with monkeypatch.context() as scoped:
            scoped.setattr(kernel, "_BLOCK_ELEMENTS", budget)
            gram = rr.assemble_gram(default_kernel, xp, xq)
            small = rr.assemble_gram(default_kernel, rr.SampleSet(xp.points[:400], "p"), xq)
            model = rr.fit_iterated_lavrentiev(small, 0.1, 3)
            reference = rr.assemble_gram(default_kernel, rr.SampleSet(xp.points[:300], "p"))
            profile = rr.capacity_profile(reference, np.geomspace(0.01, 1.0, 20))
            height = kernel._block_height(small.n)
            heights = {min(height, 3072 - start) for start in range(0, 3072, height)}
            results.append((heights, gram.f_bar, rr.evaluate_batch(model, grid),
                            profile.n_eff, profile.n_inf, profile.lambda_star))
    assert len({max(r[0]) for r in results}) == 3  # three blockings of the grid
    for other in results[1:]:
        for got, want in zip(other[1:], results[0][1:]):
            assert np.array_equal(got, want)


def _cores(monkeypatch, count: int) -> None:
    """Let the row-block workers see ``count`` cores."""
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: set(range(count)))


def test_core_count_falls_back_to_cpu_count(monkeypatch):
    """Without ``os.sched_getaffinity`` (macOS, for one) the workers count ``cpu_count``
    cores, and one when it is unknown."""
    monkeypatch.delattr(kernel.os, "sched_getaffinity", raising=False)
    for reported, cores in ((3, 3), (None, 1)):
        monkeypatch.setattr(kernel.os, "cpu_count", lambda: reported)
        assert kernel._cores() == cores


@pytest.mark.parametrize("cores", [1, 3])
def test_kernel_sums_rows_are_weighted_row_sums(default_kernel, monkeypatch, cores):
    """Above two block budgets (600 x 500 points), a weight row alone, the same row as
    one of three, and no weights against a row of ones give, row by row, the bits of
    the whole kernel matrix times the row, summed along its rows."""
    _cores(monkeypatch, cores)
    rng = np.random.default_rng(64)
    a, b = rng.normal(size=(600, 2)), rng.normal(size=(500, 2))
    assert len(a) * len(b) > 2 * kernel._BLOCK_ELEMENTS
    full = rr.kernel_matrix(default_kernel, a, b)
    weights = rng.normal(size=(3, len(b)))
    for got, row in ((kernel.kernel_sums(default_kernel, a, b, weights[1:2]), weights[1]),
                     (kernel.kernel_sums(default_kernel, a, b, weights)[1:2], weights[1]),
                     (kernel.kernel_sums(default_kernel, a, b), np.ones(len(b)))):
        assert got.shape == (1, len(a))
        assert np.array_equal(got[0], (full * row).sum(axis=1))


@pytest.fixture()
def fast_switching():
    """Switch threads every 10 us during the test, to expose a lost or misplaced row."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def test_results_do_not_depend_on_the_core_count(default_kernel, monkeypatch, fast_switching):
    """f_bar, K times 3 vectors, a fit and a 3,072-point evaluation have the same bits on
    1, 2 and 3 cores, at the 64-row floor (budget 1), the default budget and in one
    block (2^30); an empty batch stays empty.  The workers are really threads."""
    xp = rr.sample_normal(2.0, 5.0, 1000, 61, "p")
    xq = rr.sample_normal(3.0, 0.5, 400, 62, "q")
    grid = np.linspace(-8.0, 12.0, 3072).reshape(-1, 1)
    vectors = np.random.default_rng(63).normal(size=(3, xp.n))
    real_values = kernel._kernel_values
    results = []
    for cores in (1, 2, 3):
        for budget in (1, kernel._BLOCK_ELEMENTS, 1 << 30):
            threads = set()

            def spy(*args, **kwargs):
                threads.add(threading.get_ident())
                return real_values(*args, **kwargs)

            with monkeypatch.context() as scoped:
                _cores(scoped, cores)
                scoped.setattr(kernel, "_BLOCK_ELEMENTS", budget)
                scoped.setattr(kernel, "_kernel_values", spy)
                gram = rr.assemble_gram(default_kernel, xp, xq)
                small = rr.assemble_gram(default_kernel, rr.SampleSet(xp.points[:400], "p"), xq)
                model = rr.fit_iterated_lavrentiev(small, 0.1, 3)
                results.append((gram.f_bar, gram.dot(vectors), model.values_at_xp,
                                rr.evaluate_batch(model, grid)))
                assert rr.evaluate_batch(model, np.zeros((0, 1))).shape == (0,)
            # a thread's ident can be reused by a later call's thread, never within one
            assert (len(threads) >= cores if budget < 1 << 30 else len(threads) == 1)
    for other in results[1:]:
        for got, want in zip(other, results[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("cores", [2, 3])
def test_workers_inherit_the_callers_error_state(monkeypatch, cores):
    """K v overflows only in row 100, which a thread computes: 2 K[100, 100] v[100] with
    v[100] = 1e308.  Under over="raise" the caller gets FloatingPointError; under
    over="ignore" nothing warns and the entry is inf."""
    _cores(monkeypatch, cores)
    points = np.arange(1024.0) * 100.0  # K = 1 off the diagonal and 2 on it
    gram = rr.assemble_gram(rr.KernelSpec(), rr.SampleSet(points, "p"))
    height = kernel._block_height(gram.n) // cores
    assert gram.n * gram.n >= 2 * kernel._BLOCK_ELEMENTS  # the work is split
    assert (100 // height) % cores != 0  # row 100 is not in one of the caller's blocks
    vectors = np.zeros((1, gram.n))
    vectors[0, 100] = 1e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        gram.dot(vectors)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        product = gram.dot(vectors)
    assert np.isinf(product[0, 100]) and np.isfinite(np.delete(product[0], 100)).all()


def test_worker_errors_reach_the_caller_with_their_type(monkeypatch):
    """An InputError raised in a thread's block of ``kernel_sums`` is raised in the caller
    as InputError, which the CLI maps to exit code 2."""
    _cores(monkeypatch, 2)
    second = kernel._block_height(2048) // 2  # the first row of the thread's first block
    real_values = kernel._kernel_values

    def failing(spec, a, b, **kwargs):
        if a[0, 0] == second:
            raise rr.InputError(f"block at row {int(a[0, 0])}")
        return real_values(spec, a, b, **kwargs)

    monkeypatch.setattr(kernel, "_kernel_values", failing)
    rows = np.arange(1000.0).reshape(-1, 1)  # row i holds the point i
    with pytest.raises(rr.InputError, match=f"block at row {second}$"):
        kernel.kernel_sums(rr.KernelSpec(), rows, np.zeros((2048, 1)))


def test_assemble_gram_checks_dimensions_before_splitting(default_kernel, monkeypatch):
    """Samples of 2 and 1 coordinates, above the two-budget threshold on 2 cores, give
    the InputError of ``kernel_matrix`` and not an IndexError from a worker."""
    _cores(monkeypatch, 2)
    xp = rr.SampleSet(np.zeros((600, 2)), "p")
    xq = rr.SampleSet(np.zeros((600, 1)), "q")
    assert xp.n * xq.n >= 2 * kernel._BLOCK_ELEMENTS
    with pytest.raises(rr.InputError, match="^point dimensions differ: 2 vs 1$"):
        rr.assemble_gram(default_kernel, xp, xq)


def test_dense_kernel_is_finite_at_extreme_inputs():
    """Every K entry lies in [offset, offset + 1] for any finite points, without a warning:
    a squared distance that overflows gives exp(-inf) = 0, the limit."""
    points = [[1e300, -1e300], [-1e300, 1e300], [0.0, 0.0], [1e300, 1e300]]
    for spec in (rr.KernelSpec(), rr.KernelSpec(bandwidth=1e-150),
                 rr.KernelSpec(family="gaussian", bandwidth=1e150)):
        for dim in (1, 2):
            sample = rr.SampleSet(np.array(points)[:, :dim], "p")
            dense = rr.assemble_gram(spec, sample, rr.SampleSet([[0.5] * dim], "q")).dense()
            assert np.isfinite(dense).all()
            assert np.all((dense >= spec.offset) & (dense <= spec.offset + 1.0))
    gram = rr.assemble_gram(rr.KernelSpec(bandwidth=1e-150), rr.SampleSet(points, "p"),
                            rr.SampleSet([[0.0, 0.0]], "q"))
    assert np.isfinite(rr.fit_iterated_lavrentiev(gram, 0.1, 2).values_at_xp).all()


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
    xp, _, gram = small_pair
    k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
    assert np.all(k_matrix.diagonal() == default_kernel.offset + 1.0)
    assert default_kernel.diagonal_value() == default_kernel.offset + 1.0


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
    with pytest.raises(rr.InputError, match="first sample"):
        rr.assemble_gram(default_kernel, rr.SampleSet([0.0], "q"))
    with pytest.raises(rr.InputError):
        rr.assemble_gram(default_kernel, xp, xq2)


def test_gram_system_shape_validation(default_kernel):
    """Every system is checked against its samples, a replaced one too."""
    gram = rr.assemble_gram(default_kernel, rr.SampleSet([0.0, 1.0, 2.0], "p"))
    with pytest.raises(rr.InputError):
        dataclasses.replace(gram, f_bar=np.zeros(2))
    with pytest.raises(rr.InputError):
        dataclasses.replace(gram, xq=rr.SampleSet([[0.0, 1.0]], "q"))
    with pytest.raises(rr.InputError):
        dataclasses.replace(gram, xq=rr.SampleSet([0.0], "p"))


def test_gram_system_freezes_a_copy_of_f_bar(default_kernel):
    """The caller's f_bar stays writable, and writing to it leaves the system's alone."""
    gram = rr.assemble_gram(default_kernel, rr.SampleSet([0.0, 1.0, 2.0], "p"))
    for build in (lambda f: rr.GramSystem(kernel=default_kernel, xp=gram.xp, xq=None, f_bar=f),
                  lambda f: dataclasses.replace(gram, f_bar=f)):
        f = np.array([1.0, 2.0, 3.0])
        system = build(f)
        assert f.flags.writeable and not system.f_bar.flags.writeable
        f[0] = 9.0
        assert system.f_bar.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("rows, rank, shape", [
    (40, 7, (40, 5)), (300, 20, (300,)), (40, 40, (40, 5)), (12, 12, (12,))],
    ids=["block", "vector", "square block", "square vector"])
def test_outside_span_overwrites_its_input(rng, rows, rank, shape):
    """The projection is written over the caller's array and returned, with the bits of
    the two-line formula that forms it in new arrays; a square basis leaves zeros."""
    basis = np.linalg.qr(rng.normal(size=(rows, rank)))[0]
    vectors = rng.normal(size=shape)
    coords = basis.T @ vectors
    if rank == rows:
        reference = np.zeros_like(vectors)
    else:
        reference = vectors - basis @ coords
        reference -= basis @ (basis.T @ reference)
    result = kernel._outside_span(basis, vectors, coords)
    assert result is vectors
    assert result.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cap", ["pivoted", "dense"])
def test_eigensystem_leaves_f_bar_alone(default_kernel, monkeypatch, cap):
    """f_bar's part outside span(U) is formed in a copy: f_bar keeps its bits."""
    if cap == "dense":
        monkeypatch.setattr(kernel, "_PIVOT_CAP", 0.0)
    xp = rr.sample_normal(0.0, 1.0, 200, 7, "p")
    gram = rr.assemble_gram(default_kernel, xp, rr.sample_normal(0.5, 1.0, 150, 8, "q"))
    before = gram.f_bar.tobytes()
    outside = gram.eigensystem[3]
    assert (gram.eigensystem[1].shape[1] < gram.n) == (cap == "pivoted")
    assert gram.f_bar.tobytes() == before
    assert not np.shares_memory(outside, gram.f_bar)


def test_one_decomposition_per_system(linalg_calls, small_pair):
    """Selection at three counts, capacity and a spectral fit share one eigh."""
    gram = dataclasses.replace(small_pair[2])
    for k in (1, 2, 3):
        rr.quasi_optimality(gram, k)
    rr.capacity_profile(gram, [0.5, 0.1])
    rr.fit_spectral(gram, rr.spectral_cutoff(0.1))
    assert linalg_calls == ["eigh"]
    t, basis = gram.eigensystem[:2]
    for array in (t, basis):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_reference_gram_matches_assembled(default_kernel, small_pair):
    """Without a target sample the system has the same spectrum and f_bar = 0."""
    xp, _, gram = small_pair
    ref = rr.assemble_gram(default_kernel, xp)
    for got, want in zip(ref.eigensystem[:2], gram.eigensystem[:2]):
        assert np.array_equal(got, want)
    assert np.all(ref.f_bar == 0.0)
    assert (ref.n, ref.xq) == (xp.n, None)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(1, 3))
def test_gram_matrix_is_psd(seed, n, dim):
    spec = rr.KernelSpec()
    points = np.random.Generator(np.random.PCG64(seed)).normal(size=(n, dim)) * 3.0
    k_matrix = rr.kernel_matrix(spec, points, points)
    smallest = np.linalg.eigvalsh(k_matrix)[0]
    assert smallest >= -1e-10 * n * float(k_matrix.diagonal().max())


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
    sample = rr.SampleSet(rng.normal(size=(13, 2)), "p")
    path = tmp_path / "xp.csv"
    rr.save_samples_csv(sample, path)
    loaded = rr.load_samples_csv(path, measure_tag="p")
    assert np.array_equal(loaded.points, sample.points)
    assert loaded.measure_tag == "p"


def test_samples_csv_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\noops\n")
    with pytest.raises(rr.InputError):
        rr.load_samples_csv(path, measure_tag="p")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n\n4.0,5.0,6.0\n7.0,8.0\n")
    with pytest.raises(rr.InputError, match=r"dimensions .*: \[1, 2, 3\]"):  # every width
        rr.load_samples_csv(ragged, measure_tag="p")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(rr.InputError):
        rr.load_samples_csv(empty, measure_tag="p")


def test_samples_csv_path_with_nul_is_not_a_parse_error():
    """open() refuses the path before any parsing, so no "non-numeric value" is reported."""
    with pytest.raises(ValueError, match="null") as info:
        rr.load_samples_csv("xp\x00.csv", measure_tag="p")
    assert not isinstance(info.value, rr.InputError)


@pytest.mark.parametrize("tail, fault", [
    (b"\xff\n", "not a UTF-8 CSV file"),
    (b"9" * 200_000 + b"\n", "not a UTF-8 CSV file: field larger than field limit")],
    ids=["bad UTF-8", "csv.Error"])
def test_samples_csv_reports_the_first_fault_read(tmp_path, tail, fault):
    """Records are parsed as they are read, so a non-numeric field more than one read
    buffer ahead of a later fault is the one reported; alone, the later fault is."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0\noops\n" + b"1.0\n" * 4096 + tail)
    with pytest.raises(rr.InputError, match="non-numeric value"):
        rr.load_samples_csv(path, measure_tag="p")
    path.write_bytes(b"1.0\n" + tail)
    with pytest.raises(rr.InputError, match=fault):
        rr.load_samples_csv(path, measure_tag="p")
