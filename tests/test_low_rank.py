"""The low-rank spectral core of an assembled GramSystem against dense references.

Every reference here is a copy of the system that the ``dense_twin``
fixture decomposes through the dense fallback, the ``eigh`` of the full
K/n, so the fits and diagnostics on the copy take the dense path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import ratioreg as rr
from ratioreg import kernel
from ratioreg.experiment import _float_bits, derive_seed
from ratioreg.regularization import iterated_lavrentiev
from ratioreg.selection import choose_from_values

COUNTS = (1, 2, 3, 5, 10)


def _pair(dim):
    """d = 1 as in the study (rank 36 of 300); d = 2 with a wider bandwidth (rank 124)."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(7, dim)))
    if dim == 1:
        spec = rr.KernelSpec()
        xp = rr.SampleSet(2.0 + np.sqrt(5.0) * rng.standard_normal((300, 1)), "p")
        xq = rr.SampleSet(3.0 + np.sqrt(0.5) * rng.standard_normal((250, 1)), "q")
    else:
        spec = rr.KernelSpec(bandwidth=1.5)
        xp = rr.SampleSet(rng.standard_normal((300, 2)), "p")
        xq = rr.SampleSet(0.5 + np.sqrt(0.5) * rng.standard_normal((250, 2)), "q")
    return spec, xp, xq


@pytest.mark.parametrize("dim", [1, 2])
def test_low_rank_matches_dense(dim, dense_twin):
    """Values, alpha, mu and leverage agree with the dense eigendecomposition."""
    spec, xp, xq = _pair(dim)
    gram = rr.assemble_gram(spec, xp, xq)
    dense = dense_twin(gram)
    t, basis = gram.eigensystem[:2]
    assert basis.shape == (xp.n, t.size) and t.size < xp.n // 2
    assert np.abs(basis.T @ basis - np.eye(t.size)).max() <= 1e-13
    top = float(np.linalg.eigvalsh(rr.kernel_matrix(spec, xp.points, xp.points) / xp.n)[-1])
    assert t[-1] == pytest.approx(top, rel=1e-13)

    lambdas = rr.LambdaGrid().with_anchor()
    for k in COUNTS:
        fast = rr.fit_iterated_lavrentiev_ladder(gram, lambdas, k)
        slow = rr.fit_iterated_lavrentiev_ladder(dense, lambdas, k)
        scale = np.abs(slow).max()
        assert np.abs(fast - slow).max() <= 1e-12 * scale
        for index in (0, 5, len(lambdas) - 1):
            scheme = iterated_lavrentiev(lambdas[index], k)
            got, want = rr.fit_spectral(gram, scheme), rr.fit_spectral(dense, scheme)
            assert got.mu_coeff == want.mu_coeff
            assert np.abs(got.alpha - want.alpha).max() <= 1e-12 * np.abs(want.alpha).max()
    scheme = iterated_lavrentiev(0.3, 2)
    got = rr.fit_spectral(gram, scheme)
    want = rr.fit_spectral(dense, scheme)
    assert np.abs(got.values_at_xp - want.values_at_xp).max() \
        <= 1e-12 * np.abs(want.values_at_xp).max()
    assert np.abs(got.alpha - want.alpha).max() <= 1e-12 * np.abs(want.alpha).max()
    assert got.mu_coeff == want.mu_coeff

    reference = rr.assemble_gram(spec, xp)
    probes = np.random.Generator(np.random.PCG64(3)).normal(size=(50, dim)) * 2.0
    lams = [0.9, 0.1, 0.01, 1e-3]
    got = rr.capacity_profile(reference, lams, probes)
    want = rr.capacity_profile(dense_twin(reference), lams, probes)
    np.testing.assert_allclose(got.n_inf, want.n_inf, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.n_eff, want.n_eff, rtol=1e-12, atol=0)
    assert got.lambda_star == pytest.approx(want.lambda_star, rel=1e-12)


def test_dense_fallback_at_three_dimensions(dense_twin):
    """Past the pivot cap the assembled system is the dense one, bit for bit."""
    spec = rr.KernelSpec()
    rng = np.random.Generator(np.random.PCG64(99))
    xp = rr.SampleSet(np.sqrt(5.0) * rng.standard_normal((150, 3)), "p")
    xq = rr.SampleSet(rng.standard_normal((40, 3)), "q")
    gram = rr.assemble_gram(spec, xp, xq)
    assert kernel._pivoted_cholesky(spec, xp.points, 0.0, int(kernel._PIVOT_CAP * xp.n)) \
        is None
    dense = dense_twin(gram)
    for got, want in zip(gram.eigensystem[:2], dense.eigensystem[:2]):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.all(gram.eigensystem[3] == 0.0)
    for k in COUNTS:
        fast = rr.fit_iterated_lavrentiev_ladder(gram, [0.5, 0.1], k)
        slow = rr.fit_iterated_lavrentiev_ladder(dense, [0.5, 0.1], k)
        assert np.array_equal(fast, slow)
        scheme = iterated_lavrentiev(0.1, k)
        assert np.array_equal(rr.fit_spectral(gram, scheme).alpha,
                              rr.fit_spectral(dense, scheme).alpha)


def test_assembly_and_ladder_memory_is_o_nr(default_kernel):
    """At n = m = 3200: O(n r) floats plus one cross-kernel block, not n^2."""
    n = 3200
    xp = rr.sample_normal(2.0, 5.0, n, 17, "p")
    xq = rr.sample_normal(3.0, 0.5, n, 18, "q")
    tracemalloc.start()
    try:
        gram = rr.assemble_gram(default_kernel, xp, xq)
        for k in COUNTS:
            rr.fit_iterated_lavrentiev_ladder(gram, rr.LambdaGrid().with_anchor(), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rank = gram.eigensystem[0].size
    assert rank < 64
    # one row block of the cross kernel plus eight n x r arrays
    rows = next(kernel._row_blocks(n, n))
    assert peak < (rows.stop - rows.start) * n * 8 + 8 * n * rank * 8
    assert peak < n * n * 8 / 4


def test_default_study_chooses_as_the_dense_ladder(dense_twin):
    """No chosen index of the default ``simulate --seed 0`` moves off the dense one."""
    config = rr.SimConfig()
    report = rr.run_study(config)
    chosen = {(c.mu_q, c.k, c.replication): c.chosen_index for c in report.cells}
    flips = 0
    for mu_q in config.mu_q_list:
        for rep in range(config.replications):
            seed_p, seed_q = (derive_seed(config.seed, _float_bits(mu_q), rep, stream)
                              for stream in (0, 1))
            xp = rr.sample_normal(config.mu_p, config.var_p, config.n, seed_p, "p")
            xq = rr.sample_normal(mu_q, config.var_q, config.m, seed_q, "q")
            gram = rr.assemble_gram(config.kernel, xp, xq)
            assert gram.eigensystem[0].size < config.n // 2  # the low-rank path
            dense = dense_twin(gram)
            for k in config.k_list:
                ladder = rr.fit_iterated_lavrentiev_ladder(
                    dense, config.grid.with_anchor(), k)
                flips += chosen[(mu_q, k, rep)] != choose_from_values(ladder)[1]
    assert len(chosen) == 300 and flips == 0
