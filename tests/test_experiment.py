from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.stats

import ratioreg as rr
from ratioreg import experiment
from ratioreg.errors import load_json
from ratioreg.experiment import (box_stats, derive_seed, nearest_rank_quantile,
                                 save_box_csv, save_report_csv, save_report_json)

SQRT_10 = 3.1622776601683795

# frozen from the first verified run with the default config (seed 0)
GOLDEN_STUDY_MSD_MUQ2_K3_REP0 = 0.077662354928031
GOLDEN_STUDY_LAMBDA_MUQ3_K3_REP0 = 0.10000000000000002


def tiny_config(**overrides) -> rr.SimConfig:
    base = dict(n=20, m=20, mu_q_list=(2.0,), k_list=(1, 2), replications=2,
                seed=3)
    base.update(overrides)
    return rr.SimConfig(**base)


def reference_points(config: rr.SimConfig, replication: int) -> np.ndarray:
    """The reference sample that ``run_study`` draws for ``replication`` at mu_q = 2."""
    seed = derive_seed(config.seed, int(np.float64(2.0).view(np.uint64)), replication, 0)
    return rr.sample_normal(config.mu_p, config.var_p, config.n, seed, "p").points


def test_true_beta_matches_quoted_form():
    x = np.linspace(-6.0, 10.0, 401)
    for mu_q in (2.0, 3.0, 4.0):
        quoted = SQRT_10 * np.exp(((x - 2.0) ** 2 - 10.0 * (x - mu_q) ** 2) / 10.0)
        mine = rr.true_beta(x, mu_q)
        assert np.abs((mine - quoted) / quoted).max() <= 1e-13


def test_true_beta_point_values():
    assert rr.true_beta(2.0, 2.0) == SQRT_10
    assert rr.true_beta(4.0, 4.0) == pytest.approx(SQRT_10 * math.exp(0.4), rel=1e-15)


def test_true_beta_identical_distributions():
    x = np.linspace(-3.0, 3.0, 7)
    assert np.all(rr.true_beta(x, 2.0, mu_p=2.0, var_p=0.5, var_q=0.5) == 1.0)


def test_true_beta_matches_independent_density_ratio():
    x = np.linspace(-10.0, 10.0, 10_000)
    for mu_q in (2.0, 3.0, 4.0):
        oracle = scipy.stats.norm.pdf(x, loc=mu_q, scale=math.sqrt(0.5)) \
            / scipy.stats.norm.pdf(x, loc=2.0, scale=math.sqrt(5.0))
        mine = rr.true_beta(x, mu_q)
        assert np.abs(mine / oracle - 1.0).max() <= 1e-12


def test_true_beta_validation():
    with pytest.raises(rr.InputError):
        rr.true_beta(0.0, 2.0, var_p=0.0)


def test_sample_normal_deterministic():
    a = rr.sample_normal(2.0, 5.0, 50, 7, "p")
    b = rr.sample_normal(2.0, 5.0, 50, 7, "p")
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, rr.sample_normal(2.0, 5.0, 50, 8, "p").points)


def test_sample_normal_moments():
    sample = rr.sample_normal(2.0, 5.0, 100_000, 31415, "p")
    assert abs(sample.points.mean() - 2.0) < 0.05
    assert abs(sample.points.var() - 5.0) < 0.15


def test_sample_normal_validation():
    with pytest.raises(rr.InputError):
        rr.sample_normal(0.0, -1.0, 5, 0)
    with pytest.raises(rr.InputError):
        rr.sample_normal(0.0, 1.0, 0, 0)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(0, 1) != derive_seed(1, 1)
    assert derive_seed(5) != derive_seed(5, 0)


def test_msd_zero_for_exact_values(small_pair):
    xp = small_pair[0]
    truth = rr.true_beta(xp.points[:, 0], 3.0)
    assert rr.msd(xp.points, truth, 3.0) == 0.0


def test_msd_constant_offset_squares(small_pair):
    xp = small_pair[0]
    truth = rr.true_beta(xp.points[:, 0], 3.0)
    assert rr.msd(xp.points, truth + 0.5, 3.0) == pytest.approx(0.25, rel=1e-12)


def test_msd_requires_1d():
    """msd takes the (n, 1) points of a 1-d study, n >= 1, and one number per point."""
    for points, values in [(np.zeros((4, 2)), np.zeros(4)), (np.zeros(4), np.zeros(4)),
                           (np.zeros((4, 1)), np.zeros(3)), (np.zeros((0, 1)), np.zeros(0)),
                           (np.zeros((2, 1)), [0.0, True])]:
        with pytest.raises(rr.InputError):
            rr.msd(points, values, 2.0)


def test_nearest_rank_quantiles():
    data = list(range(1, 21))  # 1..20
    assert nearest_rank_quantile(data, 0.25) == 5.0
    assert nearest_rank_quantile(data, 0.50) == 10.0
    assert nearest_rank_quantile(data, 0.75) == 15.0
    assert nearest_rank_quantile([3.0], 0.5) == 3.0
    assert nearest_rank_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    stats = box_stats([4.0, 1.0, 3.0, 2.0])
    assert stats["min"] == 1.0 and stats["max"] == 4.0
    assert stats["median"] == 2.0 and stats["count"] == 4


def test_sim_config_validation():
    with pytest.raises(rr.InputError):
        rr.SimConfig(n=1)
    with pytest.raises(rr.InputError):
        rr.SimConfig(var_q=0.0)
    with pytest.raises(rr.InputError):
        rr.SimConfig(replications=0)
    with pytest.raises(rr.InputError):
        rr.SimConfig(k_list=())
    with pytest.raises(rr.InputError):
        rr.SimConfig(k_list=(0,))


def test_sim_config_round_trip():
    config = tiny_config()
    assert rr.SimConfig.from_dict(config.to_dict()) == config


def test_run_study_shape_single_cell():
    config = rr.SimConfig(n=15, m=15, mu_q_list=(2.0,), k_list=(1,),
                          replications=1, seed=5)
    report = rr.run_study(config)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.error is None
    assert cell.msd is not None and math.isfinite(cell.msd) and cell.msd >= 0.0
    assert cell.chosen_lambda in config.grid.values


def test_run_study_deterministic(tmp_path):
    config = tiny_config()
    blobs = set()
    for run in range(3):
        path = tmp_path / f"report{run}.json"
        save_report_json(rr.run_study(config), path)
        blobs.add(path.read_bytes())
    assert len(blobs) == 1


def test_run_study_cells_sorted_and_finite():
    config = tiny_config(mu_q_list=(2.0, 4.0))
    report = rr.run_study(config)
    keys = [(c.mu_q, c.k, c.replication) for c in report.cells]
    order = {2.0: 0, 4.0: 1}
    assert keys == sorted(keys, key=lambda t: (order[t[0]], t[1], t[2]))
    assert all(c.msd >= 0.0 and math.isfinite(c.msd) for c in report.cells)


def test_run_study_box_recomputable():
    config = tiny_config(replications=5)
    report = rr.run_study(config)
    for k in config.k_list:
        raw = report.msd_values(2.0, k)
        assert report.box[repr(2.0)][str(k)] == box_stats(raw)


def test_run_study_matches_direct_selection(default_kernel):
    """A study cell must equal the stand-alone selection pipeline bit for bit."""
    config = rr.SimConfig(n=25, m=25, mu_q_list=(3.0,), k_list=(2,),
                          replications=1, seed=11)
    report = rr.run_study(config)
    cell = report.cells[0]
    bits = int(np.float64(3.0).view(np.uint64))
    xp = rr.sample_normal(2.0, 5.0, 25, derive_seed(11, bits, 0, 0), "p")
    xq = rr.sample_normal(3.0, 0.5, 25, derive_seed(11, bits, 0, 1), "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    trace = rr.quasi_optimality(gram, 2)
    assert cell.chosen_index == trace.chosen_index
    assert cell.chosen_lambda == trace.chosen_lambda
    assert cell.msd == rr.msd(xp.points, trace.chosen_values, 3.0)


def test_run_study_golden_cells():
    report = rr.run_study(rr.SimConfig())
    cell2 = [c for c in report.cells
             if c.mu_q == 2.0 and c.k == 3 and c.replication == 0][0]
    assert cell2.msd == pytest.approx(GOLDEN_STUDY_MSD_MUQ2_K3_REP0, rel=1e-9)
    cell3 = [c for c in report.cells
             if c.mu_q == 3.0 and c.k == 3 and c.replication == 0][0]
    assert cell3.chosen_lambda == pytest.approx(GOLDEN_STUDY_LAMBDA_MUQ3_K3_REP0,
                                                rel=1e-12)
    assert cell3.chosen_index == 8


def test_run_study_median_stability_under_doubling():
    """Doubling the replication count (fresh derived seeds for the new
    half) must not move any box median by 50% or more."""
    r20 = rr.run_study(rr.SimConfig(replications=20))
    r40 = rr.run_study(rr.SimConfig(replications=40))
    for mu_q in (2.0, 3.0, 4.0):
        for k in (1, 2, 3, 5, 10):
            a = r20.box[repr(mu_q)][str(k)]["median"]
            b = r40.box[repr(mu_q)][str(k)]["median"]
            assert abs(a - b) / a < 0.5


def test_run_study_isolates_cell_failures(monkeypatch):
    real = experiment.quasi_optimality
    failing = reference_points(tiny_config(), 1)

    def flaky(gram, iterations, grid):
        if np.array_equal(gram.xp.points, failing):
            raise rr.NumericalError("synthetic breakdown", lam=min(grid.values))
        return real(gram, iterations, grid)

    monkeypatch.setattr(experiment, "quasi_optimality", flaky)
    report = rr.run_study(tiny_config())
    failed = [c for c in report.cells if c.error is not None]
    fine = [c for c in report.cells if c.error is None]
    assert len(failed) == 2  # both k values of replication 1
    assert all(c.replication == 1 for c in failed)
    assert all(c.msd is None and "synthetic breakdown" in c.error for c in failed)
    assert report.failures == 2
    assert len(fine) == 2
    # box stats ignore the failed half
    assert report.box[repr(2.0)]["1"]["count"] == 1


def test_study_cell_decomposes_once(linalg_calls):
    """One eigendecomposition per draw covers every strength and every k."""
    rr.run_study(tiny_config(k_list=(1, 2, 3)))
    assert linalg_calls == ["eigh", "eigh"]  # two replications


def test_run_study_isolates_indefinite_systems(monkeypatch, dense_twin):
    """A cell whose Gram system is indefinite fails alone, with the diagnosis."""
    real = experiment.assemble_gram
    failing = reference_points(tiny_config(), 0)

    def indefinite(spec, xp, xq):
        gram = real(spec, xp, xq)
        if not np.array_equal(xp.points, failing):
            return gram
        k_matrix = np.eye(xp.n)
        k_matrix[0, 0] = -float(xp.n)  # K/n has eigenvalue -1
        return dense_twin(gram, k_matrix=k_matrix)

    monkeypatch.setattr(experiment, "assemble_gram", indefinite)
    report = rr.run_study(tiny_config())
    failed = [c for c in report.cells if c.error is not None]
    assert [c.replication for c in failed] == [0, 0]
    bottom = min(tiny_config().grid.values)
    for cell in failed:
        assert cell.error.startswith("NumericalError")
        assert f"lambda={bottom!r}" in cell.error
        assert f"smallest eigenvalue estimate={bottom - 1.0!r}" in cell.error
    assert report.failures == 2


def test_report_json_round_trip(tmp_path):
    report = rr.run_study(tiny_config())
    path = tmp_path / "report.json"
    experiment.save_report_json(report, path)
    raw = load_json(path, "report file")
    assert raw["config"]["n"] == 20
    assert len(raw["cells"]) == 4
    assert raw["failures"] == 0
    rebuilt = rr.SimConfig.from_dict(raw["config"])
    assert rebuilt == report.config


def test_report_csv_outputs(tmp_path):
    report = rr.run_study(tiny_config())
    rep_path = tmp_path / "replications.csv"
    box_path = tmp_path / "box.csv"
    save_report_csv(report, rep_path)
    save_box_csv(report, box_path)
    with open(rep_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["mu_q", "k", "replication", "chosen_lambda", "msd"]
    assert len(rows) == 1 + len(report.cells)
    assert float(rows[1][4]) == report.cells[0].msd
    with open(box_path, newline="") as handle:
        box_rows = list(csv.reader(handle))
    assert box_rows[0] == ["mu_q", "k", "min", "q1", "median", "q3", "max"]
    assert len(box_rows) == 1 + 2
    assert "\r" not in rep_path.read_bytes().decode()


def test_probe_grid_errors_recorded():
    config = tiny_config(k_list=(1,))
    grid = np.linspace(-2.0, 6.0, 21)
    report = rr.run_study(config, probe_grid=grid)
    assert report.probe_grid == tuple(grid.tolist())
    assert all(c.max_pointwise_error is not None and c.max_pointwise_error >= 0.0
               for c in report.cells)
    plain = rr.run_study(config)
    assert all(c.max_pointwise_error is None for c in plain.cells)


def test_run_study_builds_no_model_without_a_probe_grid(monkeypatch):
    """Selection and msd read the ladder's values alone: without a probe grid the
    study neither builds a model nor filters for its expansion."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the study built a model")

    for module in (rr.estimator, rr.selection, experiment):
        for name in ("RatioModel", "filter_quotient_value"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    report = rr.run_study(tiny_config())
    assert report.failures == 0 and all(c.msd is not None for c in report.cells)


def test_fit_log_slope_recovers_exact_exponent():
    n = np.array([50, 100, 200, 400, 800])
    for r in (0.5, 1.0, 1.7):
        errors = 3.7 * (n ** -0.5) ** r
        assert abs(rr.fit_log_slope(n, errors) - r) <= 1e-10


def test_fit_log_slope_validation():
    with pytest.raises(rr.InputError):
        rr.fit_log_slope([100], [0.1])
    with pytest.raises(rr.InputError):
        rr.fit_log_slope([100, 200], [0.1, -0.1])
    with pytest.raises(rr.InputError):
        rr.fit_log_slope([100, 200], [0.1])


def test_rate_study_single_n_marks_insufficient():
    record = rr.run_rate_study([40], eta=1.0, varsigma=0.5, iterations=2,
                               replications=2, seed=0)
    assert record.insufficient_points
    assert record.pointwise_slope is None and record.rms_slope is None
    assert len(record.lambdas) == 1


def test_rate_study_uses_balance_lambda():
    record = rr.run_rate_study([30, 60], eta=1.0, varsigma=0.5, iterations=2,
                               replications=2, seed=0)
    assert record.lambdas == (rr.lambda_mn(30, 30, 1.0, 0.5),
                              rr.lambda_mn(60, 60, 1.0, 0.5))
    assert not record.insufficient_points
    assert record.pointwise_slope is not None
    assert all(v > 0.0 for v in record.pointwise_medians + record.rms_medians)


def test_rate_study_validation():
    with pytest.raises(rr.InputError):
        rr.run_rate_study([], 1.0, 0.5, 1, 1, 0)
    with pytest.raises(rr.InputError):
        rr.run_rate_study([100, 50], 1.0, 0.5, 1, 1, 0)
    with pytest.raises(rr.InputError):
        rr.run_rate_study([50, 100], 1.0, 0.5, 0, 1, 0)
    with pytest.raises(rr.InputError):
        rr.run_rate_study([50, 100], 1.0, 0.5, 1, 0, 0)


def test_rate_study_qualitative_pointwise_ordering():
    """High-qualification pointwise recovery should not trail the
    sample-norm rate; pilot-calibrated at 50 replications per n."""
    passes = 0
    for seed in range(5):
        record = rr.run_rate_study([50, 100, 200, 400], eta=1.0, varsigma=0.5,
                                   iterations=10, replications=50, seed=seed)
        passes += record.pointwise_slope >= record.rms_slope - 0.1
    assert passes >= 4


def test_rate_record_json(tmp_path):
    record = rr.run_rate_study([30, 60], eta=1.0, varsigma=0.5, iterations=2,
                               replications=2, seed=0)
    path = tmp_path / "rates.json"
    experiment.save_rate_json(record, path)
    raw = json.loads(path.read_text())
    assert raw["n_list"] == [30, 60]
    assert raw["insufficient_points"] is False
    assert raw["pointwise_slope"] == record.pointwise_slope
