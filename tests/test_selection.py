from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import ratioreg as rr
from ratioreg.selection import choose_from_values

# frozen from the first verified run on the benchmark-sized mu_q = 3 instance
GOLDEN_CHOSEN_INDEX = 8
GOLDEN_CHOSEN_LAMBDA = 0.10000000000000002
GOLDEN_REFIT_MSD = 0.03959373930659264


def test_grid_default_ladder_descends_to_one_tenth():
    grid = rr.LambdaGrid()
    assert grid.size == 9 and len(grid.values) == 9
    assert grid.values[0] == pytest.approx(0.9 * (1.0 / 9.0) ** (1.0 / 9.0), rel=1e-15)
    assert grid.values[-1] == pytest.approx(0.1, rel=1e-14)
    assert all(a > b for a, b in zip(grid.values, grid.values[1:]))
    assert grid.with_anchor()[0] == 0.9
    assert len(grid.with_anchor()) == 10


def test_grid_validation():
    with pytest.raises(rr.InputError):
        rr.LambdaGrid(lambda_0=0.0)
    with pytest.raises(rr.InputError):
        rr.LambdaGrid(lambda_0=float("inf"))
    with pytest.raises(rr.InputError):
        rr.LambdaGrid(rho=1.0)
    with pytest.raises(rr.InputError):
        rr.LambdaGrid(rho=0.0)
    with pytest.raises(rr.InputError):
        rr.LambdaGrid(size=0)


def test_grid_round_trip():
    grid = rr.LambdaGrid(lambda_0=0.5, rho=0.7, size=4)
    assert rr.LambdaGrid(**dataclasses.asdict(grid)) == grid  # report.json records the whole ladder


def test_rms_norm_is_inverse_size_weighted():
    diffs, _ = choose_from_values([[0.0, 0.0], [3.0, 4.0]])
    assert diffs[0] == pytest.approx(math.sqrt(25.0 / 2.0), rel=1e-15)


def test_choose_from_values_picks_smallest_step():
    # walk along one axis with step sizes 5, 4, 3, 2, 3, 4 -> min at index 3
    steps = [5.0, 4.0, 3.0, 2.0, 3.0, 4.0]
    vectors = [np.array([x]) for x in np.concatenate([[0.0], np.cumsum(steps)])]
    diffs, chosen = choose_from_values(vectors)
    assert chosen == 3
    assert diffs == tuple(steps)


def test_choose_from_values_tie_goes_to_larger_lambda():
    steps = [5.0, 2.0, 3.0, 2.0, 4.0]
    vectors = [np.array([x]) for x in np.concatenate([[0.0], np.cumsum(steps)])]
    _, chosen = choose_from_values(vectors)
    assert chosen == 1  # first of the tied minima = larger strength


def test_choose_from_values_scale_equivariant(rng):
    vectors = [rng.normal(size=12) for _ in range(10)]
    _, chosen = choose_from_values(vectors)
    _, chosen_scaled = choose_from_values([4.0 * v for v in vectors])
    assert chosen == chosen_scaled


def test_choose_from_values_needs_two(rng):
    with pytest.raises(rr.InputError):
        choose_from_values([rng.normal(size=3)])


def test_quasi_optimality_golden(benchmark_pair):
    gram = benchmark_pair[2]
    trace = rr.quasi_optimality(gram, 3)
    assert trace.chosen_index == GOLDEN_CHOSEN_INDEX
    assert trace.chosen_lambda == pytest.approx(GOLDEN_CHOSEN_LAMBDA, rel=1e-12)
    assert len(trace.diffs) == 9
    refit = rr.fit_iterated_lavrentiev(gram, trace.chosen_lambda, 3)
    assert rr.msd(gram.xp.points, refit.values_at_xp, 3.0) == pytest.approx(
        GOLDEN_REFIT_MSD, rel=1e-9)


def test_quasi_optimality_chosen_lambda_is_grid_value(small_pair):
    gram = small_pair[2]
    trace = rr.quasi_optimality(gram, 2)
    assert trace.chosen_lambda == trace.grid.values[trace.chosen_index]
    assert 0 <= trace.chosen_index < trace.grid.size


def test_quasi_optimality_deterministic_bytes(small_pair):
    gram = small_pair[2]
    one = rr.quasi_optimality(gram, 3)
    two = rr.quasi_optimality(gram, 3)
    assert one.diffs == two.diffs
    assert (one.chosen_index, one.chosen_lambda) == (two.chosen_index, two.chosen_lambda)


def test_quasi_optimality_carries_chosen_values(small_pair):
    """The trace's values are the ladder's rung and the values of ``fit_spectral``
    at the chosen strength, bit for bit."""
    gram = small_pair[2]
    trace = rr.quasi_optimality(gram, 2)
    ladder = rr.fit_iterated_lavrentiev_ladder(gram, trace.grid.with_anchor(), 2)
    want = rr.fit_spectral(gram, rr.iterated_lavrentiev(trace.chosen_lambda, 2))
    assert np.array_equal(trace.chosen_values, ladder[trace.chosen_index + 1])
    assert np.array_equal(trace.chosen_values, want.values_at_xp)


def test_quasi_optimality_decomposes_once(linalg_calls, small_pair):
    gram = dataclasses.replace(small_pair[2])
    for k in (3, 3, 1):
        rr.quasi_optimality(gram, k)
    assert linalg_calls == ["eigh"]


def test_quasi_optimality_indefinite_system_raises(default_kernel, dense_twin):
    """K/n has eigenvalues 1.5 and -0.5; the ladder's bottom 0.1 leaves -0.4."""
    gram = dense_twin(
        rr.assemble_gram(default_kernel, rr.SampleSet([[0.0], [1.0]], "p"),
                         rr.SampleSet([[0.5]], "q")),
        k_matrix=np.array([[1.0, 2.0], [2.0, 1.0]]), f_bar=np.ones(2))
    with pytest.raises(rr.NumericalError) as info:
        rr.quasi_optimality(gram, 2)
    assert info.value.lam == min(rr.LambdaGrid().values)
    assert info.value.smallest_eigenvalue == pytest.approx(
        min(rr.LambdaGrid().values) - 0.5, abs=1e-12)


def test_trace_flags_choice_on_ladder_edge():
    grid = rr.LambdaGrid(size=4)
    flags = []
    for index in range(4):
        trace = rr.SelectionTrace(grid=grid, diffs=(1.0,) * 4, chosen_index=index,
                                  chosen_lambda=grid.values[index], chosen_values=None)
        flags.append(trace.at_boundary)
    assert flags == [True, False, False, True]


def test_lambda_mn_frozen_values():
    assert rr.lambda_mn(100, 100, 1.0, 0.5) == pytest.approx(
        0.2 ** (2.0 / 3.0), rel=1e-15)
    assert rr.lambda_mn(100, 100, 1.0, 0.0) == pytest.approx(
        math.sqrt(0.2), rel=1e-15)


def test_lambda_mn_symmetric_in_m_n():
    assert rr.lambda_mn(50, 200, 1.5, 0.25) == rr.lambda_mn(200, 50, 1.5, 0.25)


def test_lambda_mn_validation():
    with pytest.raises(rr.InputError):
        rr.lambda_mn(0, 10, 1.0, 0.5)
    with pytest.raises(rr.InputError):
        rr.lambda_mn(10, 10, 0.0, 0.5)
    with pytest.raises(rr.InputError):
        rr.lambda_mn(10, 10, 1.0, 0.6)
    with pytest.raises(rr.InputError):
        rr.lambda_mn(10, 10, 1.0, -0.1)
