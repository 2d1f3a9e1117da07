from __future__ import annotations

import json
import math

import numpy as np
import pytest

import ratioreg as rr
from ratioreg.selection import choose_from_values, save_trace_json

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
    assert rr.LambdaGrid.from_dict(grid.to_dict()) == grid


def test_rms_norm_is_inverse_size_weighted():
    assert rr.rms_norm(np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(25.0 / 2.0), rel=1e-15)


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


def test_quasi_optimality_golden(default_kernel, benchmark_pair):
    xp, xq, gram = benchmark_pair
    trace = rr.quasi_optimality(gram, xp, xq, default_kernel, 3)
    assert trace.chosen_index == GOLDEN_CHOSEN_INDEX
    assert trace.chosen_lambda == pytest.approx(GOLDEN_CHOSEN_LAMBDA, rel=1e-12)
    assert len(trace.diffs) == 9
    refit = rr.fit_iterated_lavrentiev(gram, xp, xq, default_kernel,
                                       trace.chosen_lambda, 3)
    assert rr.msd(refit, 3.0) == pytest.approx(GOLDEN_REFIT_MSD, rel=1e-9)


def test_quasi_optimality_chosen_lambda_is_grid_value(default_kernel, small_pair):
    xp, xq, gram = small_pair
    trace = rr.quasi_optimality(gram, xp, xq, default_kernel, 2)
    assert trace.chosen_lambda == trace.grid.values[trace.chosen_index]
    assert 0 <= trace.chosen_index < trace.grid.size


def test_quasi_optimality_deterministic_bytes(default_kernel, small_pair):
    xp, xq, gram = small_pair
    one = rr.quasi_optimality(gram, xp, xq, default_kernel, 3)
    two = rr.quasi_optimality(gram, xp, xq, default_kernel, 3)
    assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
        two.to_dict(), sort_keys=True)


def test_quasi_optimality_keep_models(default_kernel, small_pair):
    xp, xq, gram = small_pair
    trace = rr.quasi_optimality(gram, xp, xq, default_kernel, 2, keep_models=True)
    assert trace.models is not None and len(trace.models) == 10
    assert trace.chosen_model.scheme.lam == trace.chosen_lambda
    bare = rr.quasi_optimality(gram, xp, xq, default_kernel, 2)
    assert bare.models is None and bare.chosen_model is None


def test_trace_json_export(tmp_path, default_kernel, small_pair):
    xp, xq, gram = small_pair
    trace = rr.quasi_optimality(gram, xp, xq, default_kernel, 2)
    path = tmp_path / "trace.json"
    save_trace_json(trace, path)
    raw = json.loads(path.read_text())
    assert raw["chosen_lambda"] == trace.chosen_lambda
    assert raw["grid"]["size"] == 9
    assert len(raw["diffs"]) == 9


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
