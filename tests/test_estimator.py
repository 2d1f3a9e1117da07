from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import ratioreg as rr
from ratioreg import kernel
from ratioreg.experiment import derive_seed
from ratioreg.kernel import _row_blocks
from ratioreg.regularization import iterated_lavrentiev, spectral_cutoff


def test_single_step_equals_direct_solve(default_kernel, small_pair):
    """One shifted inversion is exactly the (n lam I + K)^{-1} f_bar solve, at n from
    1 (the dense fallback) to 31."""
    xq = small_pair[1]
    for n in (1, 2, 30, 31):
        xp = rr.sample_normal(2.0, 5.0, n, 101, "p")
        gram = rr.assemble_gram(default_kernel, xp, xq)
        k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
        for lam in (0.9, 0.3, 0.1):
            model = rr.fit_iterated_lavrentiev(gram, lam, 1)
            direct = np.linalg.solve(gram.n * lam * np.eye(gram.n) + k_matrix, gram.f_bar)
            assert np.abs(model.values_at_xp - direct).max() <= 1e-12


def bench_case_gram(default_kernel) -> rr.GramSystem:
    """The inputs of the benchmark's ``fit-evaluate`` case 1: n = m = 3200."""
    draws = [mean + math.sqrt(var) * np.random.default_rng([1, stream]).standard_normal(3200)
             for stream, mean, var in ((1, 2.0, 5.0), (2, 3.0, 0.5))]
    return rr.assemble_gram(default_kernel, rr.SampleSet(draws[0], "p"),
                            rr.SampleSet(draws[1], "q"))


def test_fit_decomposes_once_and_passes_over_k_at_most_twice(linalg_calls, default_kernel):
    """On the benchmark's fit (lam = 0.1, k = 3) the refinement stops after at most two
    passes over K, and the fit decomposes nothing of its own: it reads the eigensystem
    that the system keeps."""
    gram = bench_case_gram(default_kernel)
    gram.eigensystem
    for k in (1, 3):
        linalg_calls.clear()
        rr.fit_iterated_lavrentiev(gram, 0.1, k)
        assert 1 <= linalg_calls.count("dot") <= 2 and "eigh" not in linalg_calls


def test_fit_holds_the_eigensystem_and_a_block(default_kernel, monkeypatch):
    """The fit holds O(n r) floats and two blocks of kernel values, and its pass over K
    has the bits of the row sums of a hand-built K, whatever the block height."""
    n = 1200
    xp = rr.sample_normal(2.0, 5.0, n, 41, "p")
    xq = rr.sample_normal(3.0, 0.5, n, 42, "q")
    tracemalloc.start()
    try:
        gram = rr.assemble_gram(default_kernel, xp, xq)
        model = rr.fit_iterated_lavrentiev(gram, 0.1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = kernel._BLOCK_ROW_MULTIPLE * n * 8
    assert peak < 4 * block + 8 * n * gram.eigensystem[0].size * 8
    k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
    monkeypatch.setattr(kernel.GramSystem, "dot", lambda self, vectors: np.array(
        [(k_matrix * vector).sum(axis=1) for vector in vectors]))
    twin = rr.fit_iterated_lavrentiev(gram, 0.1, 3)
    assert np.array_equal(model.values_at_xp, twin.values_at_xp)
    assert np.array_equal(model.alpha, twin.alpha)


def test_iteration_telescopes(default_kernel, small_pair):
    """Step k recomputed from a separate fit at k-1 reproduces the fit at k."""
    xp, _, gram = small_pair
    lam = 0.2
    four = rr.fit_iterated_lavrentiev(gram, lam, 4)
    five = rr.fit_iterated_lavrentiev(gram, lam, 5)
    k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
    factor = scipy.linalg.cho_factor(
        gram.n * lam * np.eye(gram.n) + k_matrix, lower=True)
    recomputed = scipy.linalg.cho_solve(
        factor, gram.n * lam * four.values_at_xp + gram.f_bar)
    assert np.abs(recomputed - five.values_at_xp).max() <= 1e-12


def test_mu_coeff_is_k_over_lambda(small_pair):
    gram = small_pair[2]
    for k in (1, 2, 3, 5, 10):
        model = rr.fit_iterated_lavrentiev(gram, 0.3, k)
        assert model.mu_coeff == k / 0.3


def test_two_path_equivalence(small_pair):
    gram = small_pair[2]
    probes = np.linspace(-2.0, 6.0, 10).reshape(-1, 1)
    for k in (1, 2, 3, 5, 10):
        for lam in (0.9, 0.3, 0.1):
            fast = rr.fit_iterated_lavrentiev(gram, lam, k)
            spectral = rr.fit_spectral(gram, iterated_lavrentiev(lam, k))
            assert np.abs(fast.values_at_xp - spectral.values_at_xp).max() <= 1e-8
            assert np.abs(rr.evaluate_batch(fast, probes)
                          - rr.evaluate_batch(spectral, probes)).max() <= 1e-8
            assert fast.mu_coeff == pytest.approx(spectral.mu_coeff, rel=1e-14)


def test_ladder_agrees_with_cholesky_path(default_kernel):
    """Every rung of the spectral ladder at every count matches the recursion."""
    xp = rr.sample_normal(2.0, 5.0, 200, derive_seed(31, 0), "p")
    xq = rr.sample_normal(3.0, 0.5, 200, derive_seed(31, 1), "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    counts = (1, 2, 3, 5, 10)
    lambdas = rr.LambdaGrid().with_anchor()
    probes = np.linspace(-6.0, 10.0, 40).reshape(-1, 1)
    for k in counts:
        ladder = rr.fit_iterated_lavrentiev_ladder(gram, lambdas, k)
        assert ladder.shape == (len(lambdas), gram.n)
        for index, lam in enumerate(lambdas):
            reference = rr.fit_iterated_lavrentiev(gram, lam, k)
            scale = np.abs(reference.values_at_xp).max()
            assert np.abs(ladder[index] - reference.values_at_xp).max() \
                <= 1e-12 * scale
            model = rr.fit_spectral(gram, iterated_lavrentiev(lam, k))
            assert model.scheme == reference.scheme
            assert model.mu_coeff == reference.mu_coeff
            assert np.array_equal(model.values_at_xp, ladder[index])
            assert np.abs(model.alpha - reference.alpha).max() \
                <= 1e-12 * np.abs(reference.alpha).max()
            expected = rr.evaluate_batch(reference, probes)
            assert np.abs(rr.evaluate_batch(model, probes) - expected).max() \
                <= 1e-12 * np.abs(expected).max()


def test_ladder_rows_do_not_depend_on_ladder_length(default_kernel, benchmark_pair):
    """A rung has the same bits alone, in the study's ladder, in a longer one
    and as ``fit_spectral`` at its strength.  n = 233 and 1203 are where a
    single product over all rungs rounds a long ladder (n >= 193, n not a
    multiple of 8) or one rung (n > 1200) differently."""
    grams = [benchmark_pair[2]] + [rr.assemble_gram(
        default_kernel, rr.sample_normal(2.0, 5.0, n, 63, "p"),
        rr.sample_normal(3.0, 0.5, 100, 64, "q")) for n in (233, 1203)]
    lambdas = rr.LambdaGrid().with_anchor()
    for gram in grams:
        long = rr.fit_iterated_lavrentiev_ladder(gram, lambdas * 5, 2)
        ladder = rr.fit_iterated_lavrentiev_ladder(gram, lambdas, 2)
        assert np.array_equal(ladder, long[:len(lambdas)])
        for index, lam in enumerate(lambdas):
            alone = rr.fit_iterated_lavrentiev_ladder(gram, [lam], 2)
            assert np.array_equal(alone[0], ladder[index])
        for index, lam in enumerate(lambdas * 5):
            spectral = rr.fit_spectral(gram, iterated_lavrentiev(lam, 2))
            assert np.array_equal(spectral.values_at_xp, long[index])


def test_ladder_validation(small_pair):
    gram = small_pair[2]
    for lambdas, count in (([], 1), ([0.5, float("inf")], 1), ([0.5, 0.0], 1),
                           ([0.5], 0), ([0.5], 2.5), ([0.5], True), ([0.5], [1]),
                           ([0.5], float("nan"))):
        with pytest.raises(rr.InputError):
            rr.fit_iterated_lavrentiev_ladder(gram, lambdas, count)
    with pytest.raises(rr.InputError):  # was a KeyError after a silent k = 2 ladder
        rr.quasi_optimality(gram, 2.5)


def test_evaluate_reproduces_cached_values(small_pair):
    xp, _, gram = small_pair
    model = rr.fit_iterated_lavrentiev(gram, 0.2, 3)
    replayed = rr.evaluate_batch(model, xp.points)
    assert np.abs(replayed - model.values_at_xp).max() <= 1e-8 * max(
        1.0, np.abs(model.values_at_xp).max())


def test_evaluate_batch_matches_pointwise(small_pair):
    gram = small_pair[2]
    model = rr.fit_iterated_lavrentiev(gram, 0.2, 2)
    points = np.array([[-1.0], [2.5], [7.0]])
    batch = rr.evaluate_batch(model, points)
    singles = np.array([rr.evaluate_batch(model, [x])[0] for x in points])
    assert np.array_equal(batch, singles)


@pytest.fixture(scope="module")
def model_400(default_kernel):
    """A k = 3 fit on n = m = 400, wide enough that a batch spans row blocks."""
    xp = rr.sample_normal(2.0, 5.0, 400, derive_seed(41, 0), "p")
    xq = rr.sample_normal(3.0, 0.5, 400, derive_seed(41, 1), "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    return rr.fit_iterated_lavrentiev(gram, 0.1, 3)


def test_evaluate_batch_blocks_are_bitwise(model_400):
    """A batch over several row blocks, each block and each point alone give
    the bits of the per-row formula over the whole batch."""
    model = model_400
    points = np.linspace(-8.0, 12.0, 3072).reshape(-1, 1)
    blocks = list(_row_blocks(points.shape[0], 800))
    assert len(blocks) >= 3
    batch = rr.evaluate_batch(model, points)
    k_ref = rr.kernel_matrix(model.kernel, points, model.xp_points)
    k_target = rr.kernel_matrix(model.kernel, points, model.xq_points)
    unblocked = (k_ref * model.alpha).sum(axis=1) + model.mu_coeff * k_target.mean(axis=1)
    assert np.array_equal(batch, unblocked)
    by_block = np.concatenate([rr.evaluate_batch(model, points[rows]) for rows in blocks])
    assert np.array_equal(batch, by_block)
    edges = sorted({i for rows in blocks for i in (rows.start, rows.stop - 1)})
    singles = np.array([rr.evaluate_batch(model, points[i:i + 1])[0] for i in edges])
    assert np.array_equal(singles, batch[edges])


def test_evaluate_batch_memory_is_bounded(model_400):
    """20,000 points on a 400 + 400 model stay below one 20,000 x 400 block."""
    points = np.linspace(-8.0, 12.0, 20000).reshape(-1, 1)
    tracemalloc.start()
    try:
        rr.evaluate_batch(model_400, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20000 * 400 * 8


@pytest.mark.parametrize("cores", [1, 2])
def test_evaluate_batch_weights_its_block_in_place(model_400, monkeypatch, cores):
    """Above the 64-row floor (n = m = 400, 320 rows a block), 20,000 points peak below
    one block of n kernel values, plus the input copy, the two row sums and the values,
    plus numpy's ufunc buffers per worker (two of ``np.getbufsize()`` values): the α
    weights multiply the block in place, with no second block of products."""
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: set(range(cores)))
    n = len(model_400.xp_points)
    points = np.linspace(-8.0, 12.0, 20000).reshape(-1, 1)
    assert kernel._block_height(n) > kernel._BLOCK_ROW_MULTIPLE
    bound = kernel._block_height(n) * n + 4 * len(points) + cores * 2 * np.getbufsize()
    tracemalloc.start()
    try:
        rr.evaluate_batch(model_400, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * bound


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_workers_share_one_block_budget(default_kernel, monkeypatch, cores):
    """At n = m = 3200, ``evaluate_batch`` on 20,000 points and K times 3 vectors peak
    below one serial block of 64 rows of n kernel values (for ``dot`` also one of their
    products with a vector), plus their inputs and outputs (for ``evaluate_batch`` the
    input copy, the two row sums and the values), plus numpy's ufunc buffer per worker,
    which holds two rows of n here."""
    monkeypatch.setattr(kernel.os, "sched_getaffinity", lambda pid: set(range(cores)))
    n = 3200
    xp = rr.sample_normal(2.0, 5.0, n, 17, "p")
    xq = rr.sample_normal(3.0, 0.5, n, 18, "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    model = rr.fit_iterated_lavrentiev(gram, 0.1, 3)
    points = np.linspace(-8.0, 12.0, 20000).reshape(-1, 1)
    vectors = np.random.default_rng(19).normal(size=(3, n))
    bounds = {  # floats: the blocks, the inputs' copies and outputs, the workers' buffers
        "evaluate": kernel._block_height(n) * n + 4 * len(points) + cores * 2 * n,
        "dot": kernel._block_height(n) * 2 * n + 2 * vectors.size + cores * 2 * n,
    }
    assert kernel._block_height(n) == 64
    for name, call in (("evaluate", lambda: rr.evaluate_batch(model, points)),
                       ("dot", lambda: gram.dot(vectors))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * bounds[name], name


def test_evaluate_batch_empty(small_pair):
    gram = small_pair[2]
    model = rr.fit_iterated_lavrentiev(gram, 0.2, 2)
    assert rr.evaluate_batch(model, np.zeros((0, 1))).shape == (0,)
    with pytest.raises(rr.InputError, match="dimension 2"):
        rr.evaluate_batch(model, np.zeros((0, 2)))


def test_evaluate_dimension_mismatch(small_pair):
    gram = small_pair[2]
    model = rr.fit_iterated_lavrentiev(gram, 0.2, 2)
    with pytest.raises(rr.InputError):
        rr.evaluate_batch(model, [[1.0, 2.0]])


def test_fit_is_linear_in_rhs(small_pair):
    """Scaling f_bar scales values and alpha; the embedding coefficient
    k/lam stays put because the scale rides on the embedding itself."""
    gram = small_pair[2]
    scaled = dataclasses.replace(gram, f_bar=4.0 * gram.f_bar)
    base = rr.fit_iterated_lavrentiev(gram, 0.3, 3)
    double = rr.fit_iterated_lavrentiev(scaled, 0.3, 3)
    assert np.allclose(double.values_at_xp, 4.0 * base.values_at_xp,
                       rtol=1e-12, atol=0)
    assert np.allclose(double.alpha, 4.0 * base.alpha, rtol=1e-12, atol=0)
    assert double.mu_coeff == base.mu_coeff


def test_matched_distributions_concentrate_near_one(default_kernel):
    """p = q makes the true ratio constant 1; the fit should say so."""
    xp = rr.sample_normal(2.0, 5.0, 500, derive_seed(123, 0), "p")
    xq = rr.sample_normal(2.0, 5.0, 500, derive_seed(123, 1), "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    model = rr.fit_iterated_lavrentiev(gram, 0.3, 2)
    assert abs(model.values_at_xp.mean() - 1.0) < 0.25


def test_fit_validation(small_pair):
    gram = small_pair[2]
    for lam, k in ((0.0, 1), (float("inf"), 1), (float("inf"), 3), (0.3, 0), (0.3, 2.5)):
        with pytest.raises(rr.InputError):
            rr.fit_iterated_lavrentiev(gram, lam, k)


def test_system_without_target_sample_cannot_be_fitted(default_kernel, small_pair):
    """The capacity-only system has no xq: every fit raises one InputError."""
    xp = small_pair[0]
    ref = rr.assemble_gram(default_kernel, xp)
    assert ref.xq is None and np.all(ref.f_bar == 0.0)
    attempts = (lambda: rr.fit_iterated_lavrentiev(ref, 0.3, 2),
                lambda: rr.fit_spectral(ref, spectral_cutoff(0.1)),
                lambda: rr.fit_iterated_lavrentiev_ladder(ref, [0.5, 0.1], 2),
                lambda: rr.quasi_optimality(ref, 2))
    for attempt in attempts:
        with pytest.raises(rr.InputError, match="no target sample"):
            attempt()


def test_indefinite_system_raises_numerical_error(default_kernel, dense_twin):
    """Every path refuses the same lam on an indefinite K, with the same estimate
    lam + t_min of the smallest eigenvalue of lam I + K/n."""
    gram = rr.assemble_gram(default_kernel, rr.SampleSet([0.0, 1.0], "p"),
                            rr.SampleSet([0.0], "q"))
    # K/n = -I, so t_min = -1; then K/n with eigenvalues 1.5 and -0.5
    for k_matrix, lam, want in ((-2.0 * np.eye(2), 0.5, -0.5),
                                ([[1.0, 2.0], [2.0, 1.0]], 0.1, -0.4)):
        bad = dense_twin(gram, k_matrix=k_matrix, f_bar=np.ones(2))
        smallest = lam + bad.eigensystem[0][0]
        attempts = (lambda: rr.fit_iterated_lavrentiev(bad, lam, 1),
                    lambda: rr.fit_iterated_lavrentiev_ladder(bad, [3.0, lam], 1),
                    lambda: rr.fit_spectral(bad, rr.iterated_lavrentiev(lam, 1)),
                    lambda: rr.capacity_profile(bad, [3.0, lam]))
        for attempt in attempts:
            with pytest.raises(rr.NumericalError, match="not positive definite") as info:
                attempt()
            assert info.value.lam == lam
            assert info.value.smallest_eigenvalue == smallest
        assert smallest == pytest.approx(want, abs=1e-12)


def test_overflowing_fit_raises_numerical_error(default_kernel, dense_twin):
    """K = 1e-300 I and f_bar = 1e300 overflow every fit to inf, which each path reports."""
    gram = rr.assemble_gram(default_kernel, rr.SampleSet([0.0, 1.0], "p"),
                            rr.SampleSet([0.0], "q"))
    tiny = dense_twin(gram, k_matrix=1e-300 * np.eye(2), f_bar=np.full(2, 1e300))
    attempts = (lambda: rr.fit_iterated_lavrentiev(tiny, 1e-300, 2),
                lambda: rr.fit_spectral(tiny, rr.iterated_lavrentiev(1e-300, 1)),
                lambda: rr.fit_iterated_lavrentiev_ladder(tiny, [1e-300], 1))
    for attempt in attempts:
        with np.errstate(all="ignore"):
            with pytest.raises(rr.NumericalError, match="non-finite") as info:
                attempt()
        assert info.value.lam == 1e-300


def test_failed_eigendecomposition_raises_numerical_error(monkeypatch, small_pair):
    gram = dataclasses.replace(small_pair[2])

    def broken(matrix):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(rr.NumericalError):
        rr.fit_iterated_lavrentiev_ladder(gram, [0.5], 1)
    with pytest.raises(rr.NumericalError):
        rr.fit_spectral(gram, spectral_cutoff(0.1))


def test_cutoff_above_spectrum_gives_zero_function(default_kernel, small_pair):
    xp, _, gram = small_pair
    k_matrix = rr.kernel_matrix(default_kernel, xp.points, xp.points)
    top = float(np.linalg.eigvalsh(k_matrix / gram.n)[-1])
    model = rr.fit_spectral(gram, spectral_cutoff(top * 1.01))
    assert np.all(model.values_at_xp == 0.0)
    assert np.all(model.alpha == 0.0)
    assert model.mu_coeff == 0.0
    assert rr.evaluate_batch(model, [2.0])[0] == 0.0


def test_cutoff_fit_is_finite_and_sane(small_pair):
    gram = small_pair[2]
    model = rr.fit_spectral(gram, spectral_cutoff(0.1))
    assert np.isfinite(model.values_at_xp).all()
    assert np.isfinite(rr.evaluate_batch(model, [2.0])[0])


def test_forced_embedding_only_model(default_kernel, small_pair):
    """alpha = 0, mu = 1 evaluates to the mean kernel value against X_q."""
    xp, xq, gram = small_pair
    model = rr.RatioModel(
        kernel=default_kernel, scheme=rr.iterated_lavrentiev(0.5, 1),
        xp_points=xp.points, xq_points=xq.points,
        alpha=np.zeros(gram.n), mu_coeff=1.0, values_at_xp=gram.f_bar / gram.n)
    x = 1.7
    expected = np.mean([1.0 + math.exp(-(x - y) ** 2 / 2.0) for y in xq.points[:, 0]])
    assert rr.evaluate_batch(model, [x])[0] == pytest.approx(expected, rel=1e-14)


def test_model_json_round_trip(tmp_path, small_pair):
    gram = small_pair[2]
    model = rr.fit_iterated_lavrentiev(gram, 0.2, 3)
    path = tmp_path / "model.json"
    rr.save_model(model, path)
    loaded = rr.load_model(path)
    assert loaded.scheme == model.scheme
    assert loaded.kernel == model.kernel
    probes = np.linspace(-3.0, 7.0, 23).reshape(-1, 1)
    before = rr.evaluate_batch(model, probes)
    after = rr.evaluate_batch(loaded, probes)
    assert np.abs(before - after).max() <= 1e-12


def test_model_json_with_lavrentiev_kind_loads(tmp_path, small_pair):
    """Model files that name the single step "lavrentiev" still load, as k = 1."""
    model = rr.fit_iterated_lavrentiev(small_pair[2], 0.2, 1)
    data = model.to_dict()
    data["scheme"]["kind"] = "lavrentiev"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    loaded = rr.load_model(path)
    assert loaded.scheme == rr.iterated_lavrentiev(0.2, 1) == model.scheme
    assert np.array_equal(loaded.alpha, model.alpha)


def test_ratio_model_shape_validation(default_kernel, small_pair):
    xp, xq, gram = small_pair
    flat = rr.fit_iterated_lavrentiev(gram, 0.2, 1).to_dict()
    flat["xp_points"] = [row[0] for row in flat["xp_points"]]
    with pytest.raises(rr.InputError):
        rr.RatioModel.from_dict(flat)
    with pytest.raises(rr.InputError):
        rr.RatioModel(kernel=default_kernel, scheme=rr.iterated_lavrentiev(0.5, 1),
                      xp_points=xp.points, xq_points=xq.points,
                      alpha=np.zeros(gram.n + 1), mu_coeff=1.0,
                      values_at_xp=np.zeros(gram.n))


@pytest.mark.parametrize("n, m, d", [(0, 3, 1), (3, 0, 1), (0, 0, 1), (1, 1, 0)],
                         ids=["n=0", "m=0", "n=m=0", "d=0"])
def test_empty_or_zero_dimensional_model_refused(default_kernel, tmp_path, n, m, d):
    """A model with no reference point, no target point or no coordinate is an InputError
    from the constructor and from ``load_model``, not a ZeroDivisionError, a "Mean of empty
    slice" warning or a blamed point dimension at evaluation."""
    fields = dict(kernel=default_kernel, scheme=rr.iterated_lavrentiev(0.5, 1),
                  xp_points=np.zeros((n, d)), xq_points=np.zeros((m, d)), alpha=np.zeros(n),
                  mu_coeff=1.0, values_at_xp=np.zeros(n))
    with pytest.raises(rr.InputError, match="need n, m, d >= 1"):
        rr.RatioModel(**fields)
    data = dict(fields, kernel=dataclasses.asdict(default_kernel),
                scheme=fields["scheme"].to_dict(),
                **{key: fields[key].tolist() for key in rr.RatioModel._ARRAYS})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(rr.InputError):
        rr.load_model(path)
