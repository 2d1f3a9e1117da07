"""The benchmark's workloads: inputs, command lines and output checks.

A workload is one or more ``ratioreg`` command lines run as fresh
processes on inputs the benchmark writes before timing starts.  The
program receives only those files and its argv.

Inputs come from one of ``CASES`` fixed input cases, chosen by the
benchmark seed as ``seed % CASES``.  Each case has reference outputs in
``reference/<workload>.json``, computed from the program by
``make_reference.py``, so every run can be checked against them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

CASES = 16

# Relative tolerance of every float comparison against the references.
# It is ten times the relative tolerance of the program's own bisection for
# lambda_star, far above the last-digit differences between BLAS thread
# counts (about 1e-14), and far below the change any different choice of
# strength makes.
RTOL = 1e-8
ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# What reading a missing or malformed output raises.
OUTPUT_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def nproc() -> int:
    """Cores this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def _write_column(path: Path, values: np.ndarray) -> None:
    # Same format as ratioreg's save_samples_csv: one repr float per row.
    path.write_text("".join(repr(float(v)) + "\n" for v in values))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _normal(case: int, stream: int, mean: float, var: float, count: int) -> np.ndarray:
    rng = np.random.default_rng([case, stream])
    return mean + math.sqrt(var) * rng.standard_normal(count)


class Workload:
    """Base class; subclasses fill in the workload-specific parts.

    ``blas_threads`` and ``pool_width`` are functions of the core count.
    ``generate`` writes the inputs of a case, ``argvs`` lists the command
    lines (without the interpreter), and ``extract`` reads the outputs into
    a dict of the values ``compare`` checks against the reference.
    """

    name = ""
    # Work items one command line stands for beyond itself (the study's cells).
    extra_operations = 0

    def blas_threads(self, cpus: int) -> int:
        return cpus

    def pool_width(self, cpus: int) -> int:
        return 1

    def generate(self, case: int, inputs: Path) -> None:
        """Write the input files of ``case`` into ``inputs``."""

    def argvs(self, case: int, inputs: Path, out: Path, cpus: int) -> list[list[str]]:
        raise NotImplementedError

    def extract(self, out: Path, stdouts: list[str]) -> dict:
        raise NotImplementedError

    def digest(self, out: Path) -> str:
        """sha256 of the main output file, for byte-identity checks."""
        raise NotImplementedError

    def failed_items(self, extracted: dict) -> int:
        """Work items inside the commands that failed (study cells)."""
        return 0

    def reference(self) -> dict:
        with open(REFERENCE_DIR / f"{self.name}.json") as handle:
            return json.load(handle)


def compare(extracted: dict, expected: dict) -> list[str]:
    """Differences between extracted outputs and a reference entry.

    Floats (and lists of floats) must agree within RTOL/ATOL; integers,
    strings and None must be equal.  Returns one message per mismatch.
    """
    problems = []
    for key, want in expected.items():
        if key not in extracted:
            problems.append(f"{key}: missing from the outputs")
            continue
        got = extracted[key]
        if isinstance(want, float) or (isinstance(want, list) and want
                                       and isinstance(want[0], float)):
            got_arr = np.asarray(got, dtype=float)
            want_arr = np.asarray(want, dtype=float)
            if got_arr.shape != want_arr.shape:
                problems.append(f"{key}: shape {got_arr.shape}, expected {want_arr.shape}")
            elif not np.allclose(got_arr, want_arr, rtol=RTOL, atol=ATOL):
                bad = np.flatnonzero(~np.isclose(got_arr, want_arr, rtol=RTOL, atol=ATOL)
                                     .ravel())
                problems.append(f"{key}: {bad.size} values outside rtol={RTOL}, "
                                f"first at index {int(bad[0])}")
        elif got != want:
            problems.append(f"{key}: {got!r} != expected {want!r}")
    return problems


class Tally:
    """Operations attempted and failed over the repeats of one run, and why.

    Both the timed and the traced runs feed every command line and every
    repeat's outputs through one tally, so they count and check alike.
    """

    def __init__(self, workload: Workload, case: int):
        self.workload = workload
        self.expected = workload.reference()["cases"][str(case)]["expected"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def command(self, argv: list[str], code, output: str) -> bool:
        """Count one command line that ended with ``code``; True if it succeeded."""
        operations = 1 + self.workload.extra_operations
        self.attempted += operations
        if code == 0:
            return True
        self.failed += operations
        self.problems.append(f"{argv[0]} ended with {code}: {output[-500:]}")
        return False

    def outputs(self, out: Path, stdouts: list[str]) -> None:
        """Check the outputs of one repeat against the reference."""
        try:
            extracted = self.workload.extract(out, stdouts)
            self.digests.add(self.workload.digest(out))
            mismatches = compare(extracted, self.expected)
            self.failed += self.workload.failed_items(extracted)
        except OUTPUT_ERRORS as exc:
            mismatches = [f"unreadable output: {exc!r}"]
        if mismatches:
            self.failed += 1
            self.problems.extend(mismatches)

    def finish(self) -> None:
        """Count outputs that differ between the repeats of the run."""
        if len(self.digests) > 1:
            self.failed += 1
            self.problems.append(f"outputs differ between repeats: {len(self.digests)} digests")


class Study(Workload):
    name = "study"
    extra_operations = 300  # cells per command line

    def blas_threads(self, cpus: int) -> int:
        # Pool workers x BLAS threads stays within the core count.
        return 1

    def pool_width(self, cpus: int) -> int:
        return cpus

    def argvs(self, case, inputs, out, cpus):
        return [["simulate", "--n", "400", "--m", "400", "--seed", str(case),
                 "--threads", str(self.pool_width(cpus)), "--out-dir", str(out)]]

    def extract(self, out, stdouts):
        with open(out / "report.json") as handle:
            report = json.load(handle)
        cells = report["cells"]
        box = report["box_stats"]
        return {
            "cells": len(cells),
            "failures": report["failures"],
            "chosen_index": [c["chosen_index"] for c in cells],
            "msd": [c["msd"] for c in cells],
            "box": [stats[name] for per_k in box.values() for stats in per_k.values()
                    for name in ("min", "q1", "median", "q3", "max")],
        }

    def digest(self, out):
        return _sha256(out / "report.json")

    def failed_items(self, extracted):
        return int(extracted.get("failures", self.extra_operations))


class FitEvaluate(Workload):
    name = "fit-evaluate"
    grid = np.linspace(-8.0, 12.0, 10_000)
    # The reference holds, for each block of BLOCK consecutive evaluated
    # values, their sum and their sum weighted by position 1..BLOCK (storing
    # all 10,000 values of 16 cases would take megabytes).  A change to one
    # value shows once it exceeds about BLOCK * RTOL of its block's sum; a
    # value moved within its block or to another block changes a sum.
    block = 25

    def generate(self, case, inputs):
        _write_column(inputs / "xp.csv", _normal(case, 1, 2.0, 5.0, 3200))
        _write_column(inputs / "xq.csv", _normal(case, 2, 3.0, 0.5, 3200))
        _write_column(inputs / "grid.csv", self.grid)

    def argvs(self, case, inputs, out, cpus):
        model = str(out / "model.json")
        return [["fit", "--xp", str(inputs / "xp.csv"), "--xq", str(inputs / "xq.csv"),
                 "--lam", "0.1", "--iterations", "3", "--out", model],
                ["evaluate", "--model", model, "--points", str(inputs / "grid.csv"),
                 "--out", str(out / "values.csv")]]

    def extract(self, out, stdouts):
        with open(out / "values.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["x0", "value"]:
            raise ValueError(f"unexpected header {rows[0]!r}")
        points = np.array([float(r[0]) for r in rows[1:]])
        blocks = np.array([float(r[1]) for r in rows[1:]]).reshape(-1, self.block)
        return {
            "points_match": bool(np.array_equal(points, self.grid)),
            "block_sums": blocks.sum(axis=1).tolist(),
            "block_weighted_sums": (blocks @ np.arange(1.0, self.block + 1)).tolist(),
        }

    def digest(self, out):
        return _sha256(out / "values.csv")


class Capacity(Workload):
    name = "capacity"

    def generate(self, case, inputs):
        _write_column(inputs / "xp.csv", _normal(case, 3, 2.0, 5.0, 1600))

    def argvs(self, case, inputs, out, cpus):
        return [["capacity", "--xp", str(inputs / "xp.csv"),
                 "--out", str(out / "profile.csv")]]

    def extract(self, out, stdouts):
        with open(out / "profile.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["lambda", "n_eff", "n_inf"]:
            raise ValueError(f"unexpected header {rows[0]!r}")
        columns = list(zip(*[[float(v) for v in r] for r in rows[1:]]))
        summary = json.loads(stdouts[0].strip().splitlines()[-1])
        return {
            "lambdas": list(columns[0]),
            "n_eff": list(columns[1]),
            "n_inf": list(columns[2]),
            "lambda_star": summary["lambda_star"],
        }

    def digest(self, out):
        return _sha256(out / "profile.csv")


WORKLOADS = {w.name: w for w in (Study(), FitEvaluate(), Capacity())}
