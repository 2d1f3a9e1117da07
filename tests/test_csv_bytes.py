"""The exact text of every CSV the package writes.

The inputs are built by hand, and the evaluated model has kernel values
of exactly 2 and 1, so every float in the files is fixed by the input
and the test pins the writers' bytes alone: a float written as its
repr, an empty field for a missing value, and "\\n" line ends.
"""

from __future__ import annotations

import numpy as np

import ratioreg as rr
from ratioreg import cli, experiment
from ratioreg.capacity import CapacityProfile, save_profile_csv


def _report() -> experiment.ExperimentReport:
    """Two target means, one failed cell, and one (mu_q, k) with no box row."""
    config = rr.SimConfig(mu_q_list=(2.0, 3.5), k_list=(1, 10), replications=1)

    def cell(mu_q, k, chosen_lambda, msd, **failure):
        return experiment.CellResult(mu_q=mu_q, k=k, replication=0, chosen_lambda=chosen_lambda,
                                     chosen_index=None, msd=msd, **failure)

    cells = (cell(2.0, 1, 0.1, 0.1 + 0.2),
             cell(2.0, 10, None, None, error="NumericalError: synthetic"),
             cell(3.5, 1, 0.9 * 0.5, 1e-300),
             cell(3.5, 10, 0.1, 12345.678))
    box = {repr(2.0): {"1": experiment.box_stats([0.1 + 0.2]), "10": None},
           repr(3.5): {"1": experiment.box_stats([1e-300]),
                       "10": experiment.box_stats([12345.678])}}
    return experiment.ExperimentReport(config=config, cells=cells, box=box, failures=1)


def test_csv_outputs_are_pinned_byte_for_byte(tmp_path):
    sample = rr.SampleSet([[0.1, -2.5], [1e-300, 12345.678], [-0.0, 0.1 + 0.2]], "p")
    rr.save_samples_csv(sample, tmp_path / "samples.csv")
    assert (tmp_path / "samples.csv").read_bytes() == (
        b"0.1,-2.5\n"
        b"1e-300,12345.678\n"
        b"-0.0,0.30000000000000004\n")

    report = _report()
    experiment.save_report_csv(report, tmp_path / "replications.csv")
    assert (tmp_path / "replications.csv").read_bytes() == (
        b"mu_q,k,replication,chosen_lambda,msd\n"
        b"2.0,1,0,0.1,0.30000000000000004\n"
        b"2.0,10,0,,\n"
        b"3.5,1,0,0.45,1e-300\n"
        b"3.5,10,0,0.1,12345.678\n")
    experiment.save_box_csv(report, tmp_path / "box_stats.csv")
    assert (tmp_path / "box_stats.csv").read_bytes() == (
        b"mu_q,k,min,q1,median,q3,max\n"
        b"2.0,1,0.30000000000000004,0.30000000000000004,0.30000000000000004,"
        b"0.30000000000000004,0.30000000000000004\n"
        b"3.5,1,1e-300,1e-300,1e-300,1e-300,1e-300\n"
        b"3.5,10,12345.678,12345.678,12345.678,12345.678,12345.678\n")

    profile = CapacityProfile(lambdas=np.array([1.0, 0.1]), n_eff=np.array([2.5, 1.0 / 3.0]),
                              n_inf=np.array([7.0, 1e20]), lambda_star=None)
    save_profile_csv(profile, tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes() == (
        b"lambda,n_eff,n_inf\n"
        b"1.0,2.5,7.0\n"
        b"0.1,0.3333333333333333,1e+20\n")

    # k(x, x) = 2 and k(x, y) = 1 + exp(-5000.125) = 1 exactly, so beta is
    # 0.3 * 2 + 0.1 * 2 at the origin and 0.3 + 0.1 far from it
    model = rr.RatioModel(kernel=rr.KernelSpec(), scheme=rr.iterated_lavrentiev(0.5, 1),
                          xp_points=[[0.0, 0.0]], xq_points=[[0.0, 0.0]], alpha=[0.3],
                          mu_coeff=0.1, values_at_xp=[0.8])
    rr.save_model(model, tmp_path / "model.json")
    (tmp_path / "points.csv").write_text("0.0,0.0\n100.0,-0.5\n")
    assert cli.main(["evaluate", "--model", str(tmp_path / "model.json"),
                     "--points", str(tmp_path / "points.csv"),
                     "--out", str(tmp_path / "values.csv"), "--format", "csv"]) == 0
    assert (tmp_path / "values.csv").read_bytes() == (
        b"x0,x1,value\n"
        b"0.0,0.0,0.8\n"
        b"100.0,-0.5,0.4\n")
