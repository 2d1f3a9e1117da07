"""Tests of the benchmark's output checks against the stored references.

Run with ``python3 -m pytest bench/tests/selftest_*.py``.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from workloads import CASES, RTOL, WORKLOADS, Tally, compare  # noqa: E402


def _expected(name: str, case: int = 0) -> dict:
    return WORKLOADS[name].reference()["cases"][str(case)]["expected"]


def _write_study_report(out: Path, expected: dict) -> None:
    """A report.json holding exactly the reference's values."""
    box = iter(expected["box"][i:i + 5] for i in range(0, len(expected["box"]), 5))
    report = {
        "cells": [{"chosen_index": i, "msd": m}
                  for i, m in zip(expected["chosen_index"], expected["msd"])],
        "box_stats": {mu: {k: dict(zip(("min", "q1", "median", "q3", "max"), next(box)))
                           for k in ("1", "2", "3", "5", "10")}
                      for mu in ("2.0", "3.0", "4.0")},
        "failures": expected["failures"],
    }
    (out / "report.json").write_text(json.dumps(report))


def _write_profile(out: Path, expected: dict) -> list[str]:
    with open(out / "profile.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["lambda", "n_eff", "n_inf"])
        for row in zip(expected["lambdas"], expected["n_eff"], expected["n_inf"]):
            writer.writerow([repr(v) for v in row])
    return [json.dumps({"lambda_star": expected["lambda_star"]}) + "\n"]


def test_every_case_has_a_reference():
    for workload in WORKLOADS.values():
        assert sorted(map(int, workload.reference()["cases"])) == list(range(CASES))


def test_study_check_accepts_the_reference_and_rejects_a_perturbed_msd(tmp_path):
    study = WORKLOADS["study"]
    expected = _expected("study")
    _write_study_report(tmp_path, expected)
    assert compare(study.extract(tmp_path, []), expected) == []

    expected_msd = list(expected["msd"])
    perturbed = dict(expected, msd=expected_msd[:7] + [expected_msd[7] * (1 + 100 * RTOL)]
                     + expected_msd[8:])
    _write_study_report(tmp_path, perturbed)
    problems = compare(study.extract(tmp_path, []), expected)
    assert len(problems) == 1 and problems[0].startswith("msd: 1 values")


def test_study_check_rejects_a_different_chosen_strength(tmp_path):
    study = WORKLOADS["study"]
    expected = _expected("study")
    chosen = list(expected["chosen_index"])
    chosen[0] = (chosen[0] + 1) % 9
    _write_study_report(tmp_path, dict(expected, chosen_index=chosen))
    assert compare(study.extract(tmp_path, []), expected)


def test_capacity_check_accepts_the_reference_and_rejects_a_perturbed_profile(tmp_path):
    capacity = WORKLOADS["capacity"]
    expected = _expected("capacity", 5)
    stdouts = _write_profile(tmp_path, expected)
    assert compare(capacity.extract(tmp_path, stdouts), expected) == []

    n_inf = list(expected["n_inf"])
    n_inf[-1] *= 1 + 100 * RTOL
    stdouts = _write_profile(tmp_path, dict(expected, n_inf=n_inf))
    problems = compare(capacity.extract(tmp_path, stdouts), expected)
    assert len(problems) == 1 and problems[0].startswith("n_inf:")


def test_fit_evaluate_check_rejects_a_perturbed_moved_value_or_grid(tmp_path):
    fit_evaluate = WORKLOADS["fit-evaluate"]
    expected = _expected("fit-evaluate", 3)
    # The first and last value of each block carry the block's sum and
    # weighted sum (weights 1 and BLOCK), so the blocks match.
    sums = np.array(expected["block_sums"])
    last = (np.array(expected["block_weighted_sums"]) - sums) / (fit_evaluate.block - 1)
    values = np.zeros(fit_evaluate.grid.size)
    values[::fit_evaluate.block] = sums - last
    values[fit_evaluate.block - 1::fit_evaluate.block] = last

    def write(points, values):
        rows = "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(points, values))
        (tmp_path / "values.csv").write_text("x0,value\n" + rows)
        return fit_evaluate.extract(tmp_path, [])

    assert compare(write(fit_evaluate.grid, values), expected) == []
    perturbed = values.copy()
    perturbed[-1] += 1e-6
    problems = compare(write(fit_evaluate.grid, perturbed), expected)
    assert [p.split(":")[0] for p in problems] == ["block_sums", "block_weighted_sums"]
    swapped = values.copy()
    swapped[[50, 51]] = swapped[[51, 50]]
    problems = compare(write(fit_evaluate.grid, swapped), expected)
    assert [p.split(":")[0] for p in problems] == ["block_weighted_sums"]
    shifted = fit_evaluate.grid.copy()
    shifted[17] = np.nextafter(shifted[17], 0.0)
    assert compare(write(shifted, values), expected) == [
        "points_match: False != expected True"]
    with pytest.raises(ValueError):
        write(fit_evaluate.grid[:-1], values[:-1])


def test_tally_counts_failed_commands_mismatches_and_differing_repeats(tmp_path):
    capacity = WORKLOADS["capacity"]
    expected = _expected("capacity", 5)
    tally = Tally(capacity, 5)
    argv = ["capacity"]
    assert tally.command(argv, 0, "")
    tally.outputs(tmp_path, _write_profile(tmp_path, expected))
    assert (tally.attempted, tally.failed, tally.problems) == (1, 0, [])

    n_eff = list(expected["n_eff"])
    n_eff[0] *= 1 + 100 * RTOL
    assert tally.command(argv, 0, "")
    tally.outputs(tmp_path, _write_profile(tmp_path, dict(expected, n_eff=n_eff)))
    assert not tally.command(argv, 1, "Traceback ...")
    (tmp_path / "profile.csv").unlink()
    assert tally.command(argv, 0, "")
    tally.outputs(tmp_path, [])
    tally.finish()
    assert tally.attempted == 4
    assert [p.split(":")[0] for p in tally.problems] == [
        "n_eff", "capacity ended with 1", "unreadable output",
        "outputs differ between repeats"]
    assert tally.failed == 4
