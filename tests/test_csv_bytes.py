"""The exact text of every CSV the package writes, of the study's report.json and of
evaluate's JSON.

The inputs are built by hand, and the evaluated model has kernel values
of exactly 2 and 1, so every float in the files is fixed by the input
and the test pins the writers' bytes alone: a float written as its
repr, an empty field for a missing value, and "\\n" line ends.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import ratioreg as rr
from ratioreg import cli, experiment
from ratioreg.capacity import CapacityProfile, save_profile_csv
from ratioreg.errors import save_json


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
    return experiment.ExperimentReport(config=config, cells=cells, box_stats=box, failures=1)


def test_report_json_is_pinned_byte_for_byte(tmp_path):
    """report.json holds the report's fields under their own names, keys sorted, with
    tuples as lists, None as null and floats as their repr."""
    report = dataclasses.replace(_report(), probe_grid=(-0.5, 0.1 + 0.2))
    experiment.save_report_json(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == b"""\
{
  "box_stats": {
    "2.0": {
      "1": {
        "count": 1,
        "max": 0.30000000000000004,
        "median": 0.30000000000000004,
        "min": 0.30000000000000004,
        "q1": 0.30000000000000004,
        "q3": 0.30000000000000004
      },
      "10": null
    },
    "3.5": {
      "1": {
        "count": 1,
        "max": 1e-300,
        "median": 1e-300,
        "min": 1e-300,
        "q1": 1e-300,
        "q3": 1e-300
      },
      "10": {
        "count": 1,
        "max": 12345.678,
        "median": 12345.678,
        "min": 12345.678,
        "q1": 12345.678,
        "q3": 12345.678
      }
    }
  },
  "cells": [
    {
      "chosen_index": null,
      "chosen_lambda": 0.1,
      "error": null,
      "k": 1,
      "max_pointwise_error": null,
      "msd": 0.30000000000000004,
      "mu_q": 2.0,
      "replication": 0
    },
    {
      "chosen_index": null,
      "chosen_lambda": null,
      "error": "NumericalError: synthetic",
      "k": 10,
      "max_pointwise_error": null,
      "msd": null,
      "mu_q": 2.0,
      "replication": 0
    },
    {
      "chosen_index": null,
      "chosen_lambda": 0.45,
      "error": null,
      "k": 1,
      "max_pointwise_error": null,
      "msd": 1e-300,
      "mu_q": 3.5,
      "replication": 0
    },
    {
      "chosen_index": null,
      "chosen_lambda": 0.1,
      "error": null,
      "k": 10,
      "max_pointwise_error": null,
      "msd": 12345.678,
      "mu_q": 3.5,
      "replication": 0
    }
  ],
  "config": {
    "grid": {
      "lambda_0": 0.9,
      "rho": 0.7833810369372723,
      "size": 9
    },
    "k_list": [
      1,
      10
    ],
    "kernel": {
      "bandwidth": 1.0,
      "family": "gaussian_plus_one",
      "offset": 1.0
    },
    "m": 100,
    "mu_p": 2.0,
    "mu_q_list": [
      2.0,
      3.5
    ],
    "n": 100,
    "replications": 1,
    "seed": 0,
    "var_p": 5.0,
    "var_q": 0.5
  },
  "failures": 1,
  "probe_grid": [
    -0.5,
    0.30000000000000004
  ]
}
"""


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


def test_evaluate_json_is_pinned_byte_for_byte(tmp_path):
    """evaluate --format json writes the bytes of save_json's {"points", "values"}, a
    chunk of rows at a time: pinned for one point at d = 1 and d = 2, and equal to
    save_json of the whole lists past one chunk."""
    def evaluate(points: np.ndarray) -> bytes:
        origin = [[0.0] * points.shape[1]]  # kernel values of exactly 2 and 1, as above
        rr.save_model(rr.RatioModel(kernel=rr.KernelSpec(), scheme=rr.iterated_lavrentiev(0.5, 1),
                                    xp_points=origin, xq_points=origin, alpha=[0.3],
                                    mu_coeff=0.1, values_at_xp=[0.8]), tmp_path / "model.json")
        rr.save_samples_csv(rr.SampleSet(points, "p"), tmp_path / "points.csv")
        assert cli.main(["evaluate", "--model", str(tmp_path / "model.json"),
                         "--points", str(tmp_path / "points.csv"),
                         "--out", str(tmp_path / "values.json"), "--format", "json"]) == 0
        return (tmp_path / "values.json").read_bytes()

    assert evaluate(np.array([[0.0]])) == (
        b'{\n  "points": [\n    [\n      0.0\n    ]\n  ],\n  "values": [\n    0.8\n  ]\n}\n')
    assert evaluate(np.array([[100.0, -0.5]])) == (
        b'{\n  "points": [\n    [\n      100.0,\n      -0.5\n    ]\n  ],\n'
        b'  "values": [\n    0.4\n  ]\n}\n')
    for dim in (1, 2):
        points = np.linspace(-3.0, 3.0, (cli._CSV_CHUNK + 3) * dim).reshape(-1, dim)
        written = evaluate(points)
        values = rr.evaluate_batch(rr.load_model(tmp_path / "model.json"), points)
        save_json({"points": points.tolist(), "values": values.tolist()}, tmp_path / "whole.json")
        assert written == (tmp_path / "whole.json").read_bytes()
