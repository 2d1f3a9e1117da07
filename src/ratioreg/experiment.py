"""The two-Gaussian simulation study, end to end.

Reference draws come from N(mu_p, var_p), target draws from
N(mu_q, var_q); the exact ratio of those densities is

    beta(x) = sqrt(var_p / var_q)
              * exp( (x - mu_p)^2 / (2 var_p) - (x - mu_q)^2 / (2 var_q) ),

which the study uses as ground truth.  Accuracy is measured by the mean
squared deviation over the reference sample,

    msd = (1/n) * sum_i ( beta(x_i) - beta_hat(x_i) )^2.

Every replication cell derives its own seed from (config.seed, mu_q,
replication) through a SplitMix64 chain, so cells are independent,
reproducible in isolation, and independent of execution order; the
study runs them one after another in a single thread.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (InputError, NumericalError, finite_array, finite_real, iteration_count,
                     positive_real, save_csv, save_json, whole_number)
from .estimator import evaluate_batch, fit_iterated_lavrentiev, fit_spectral
from .kernel import KernelSpec, SampleSet, _as_points, assemble_gram
from .regularization import iterated_lavrentiev
from .selection import LambdaGrid, lambda_mn, quasi_optimality

# The benchmark's Gaussians: reference N(MU_P, VAR_P), target N(mu_q, VAR_Q).
MU_P, VAR_P, VAR_Q = 2.0, 5.0, 0.5

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer parts into one 64-bit stream id.

    SplitMix64 applied along the chain; collisions across distinct part
    tuples are as unlikely as 64-bit hash collisions.
    """
    state = _splitmix64(master & _MASK64)
    for part in parts:
        state = _splitmix64((state ^ (part & _MASK64)) & _MASK64)
    return state


def _float_bits(value: float) -> int:
    """IEEE-754 bit pattern of a float, for exact seed mixing."""
    return int(np.float64(value).view(np.uint64))


def true_beta(x, mu_q: float, mu_p: float = MU_P, var_p: float = VAR_P,
              var_q: float = VAR_Q):
    """Exact density ratio of N(mu_q, var_q) over N(mu_p, var_p).

    Vectorized over x; InputError where it is not finite in floating point.
    With the default parameters this reduces to
    sqrt(10) * exp(((x - 2)^2 - 10 (x - mu_q)^2) / 10).
    """
    mu_q, mu_p = finite_real(mu_q, "mu_q"), finite_real(mu_p, "mu_p")
    var_p, var_q = positive_real(var_p, "var_p"), positive_real(var_q, "var_q")
    arr = finite_array(x, "x")
    # an overflowed square gives exp(-inf) = 0, or a non-finite ratio that is refused
    with np.errstate(over="ignore", invalid="ignore"):
        out = math.sqrt(var_p / var_q) * np.exp(
            (arr - mu_p) ** 2 / (2.0 * var_p) - (arr - mu_q) ** 2 / (2.0 * var_q))
    if not np.isfinite(out).all():
        raise InputError(f"the exact ratio is not finite in floating point: mu_q={mu_q!r}, "
                         f"mu_p={mu_p!r}, var_p={var_p!r}, var_q={var_q!r}")
    return float(out) if out.ndim == 0 else out


def sample_normal(mu: float, var: float, count: int, seed: int,
                  measure_tag: str = "p") -> SampleSet:
    """Draw count i.i.d. values from N(mu, var).

    The generator is numpy's PCG64 seeded directly with ``seed``, so
    identical seeds give identical samples on any platform.
    """
    mu, var = finite_real(mu, "mu"), positive_real(var, "var")
    count = whole_number(count, "count")
    seed = whole_number(seed, "seed", minimum=0)  # PCG64 takes no negative seed
    rng = np.random.Generator(np.random.PCG64(seed))
    points = mu + math.sqrt(var) * rng.standard_normal(count)
    return SampleSet(points=points.reshape(-1, 1), measure_tag=measure_tag)


def msd(points, values, mu_q: float, mu_p: float = MU_P, var_p: float = VAR_P,
        var_q: float = VAR_Q) -> float:
    """Mean squared deviation of fitted ``values`` from the exact ratio at (n, 1) ``points``."""
    pts, fitted = finite_array(points, "points"), finite_array(values, "values")
    if pts.ndim != 2 or pts.shape[1] != 1 or fitted.shape != pts.shape[:1] or not fitted.size:
        raise InputError("msd takes n >= 1 points of a 1-d study as (n, 1) and n values, "
                         f"got shapes {pts.shape} and {fitted.shape}")
    truth = true_beta(pts[:, 0], mu_q, mu_p, var_p, var_q)
    return float(np.mean((truth - fitted) ** 2))


def nearest_rank_quantile(sorted_values, fraction: float) -> float:
    """Type-1 (nearest-rank) quantile: smallest value covering ``fraction``."""
    count = len(sorted_values)
    if count == 0:
        raise InputError("cannot take a quantile of an empty list")
    index = max(int(math.ceil(fraction * count)) - 1, 0)
    return float(sorted_values[index])


def box_stats(values) -> dict:
    """min / q1 / median / q3 / max under the nearest-rank convention."""
    ordered = sorted(float(v) for v in values)
    return {
        "min": ordered[0],
        "q1": nearest_rank_quantile(ordered, 0.25),
        "median": nearest_rank_quantile(ordered, 0.50),
        "q3": nearest_rank_quantile(ordered, 0.75),
        "max": ordered[-1],
        "count": len(ordered),
    }


@dataclass(frozen=True)
class SimConfig:
    """Study configuration; defaults reproduce the two-Gaussian benchmark."""

    n: int = 100
    m: int = 100
    mu_p: float = MU_P
    var_p: float = VAR_P
    mu_q_list: tuple[float, ...] = (2.0, 3.0, 4.0)
    var_q: float = VAR_Q
    k_list: tuple[int, ...] = (1, 2, 3, 5, 10)
    replications: int = 20
    grid: LambdaGrid = field(default_factory=LambdaGrid)
    seed: int = 0
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        checked = {
            "n": whole_number(self.n, "n", minimum=2),
            "m": whole_number(self.m, "m", minimum=2),
            "mu_p": finite_real(self.mu_p, "mu_p"),
            "var_p": positive_real(self.var_p, "var_p"),
            "mu_q_list": tuple(finite_real(v, "mu_q_list entry") for v in self.mu_q_list),
            "var_q": positive_real(self.var_q, "var_q"),
            "k_list": tuple(iteration_count(k, "k_list entry") for k in self.k_list),
            "replications": whole_number(self.replications, "replications"),
            # derive_seed masks it to 64 bits, so a negative seed is valid
            "seed": whole_number(self.seed, "seed", minimum=None),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not self.mu_q_list or not self.k_list:
            raise InputError("mu_q_list and k_list must be non-empty")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "mu_p": self.mu_p, "var_p": self.var_p,
            "mu_q_list": list(self.mu_q_list), "var_q": self.var_q,
            "k_list": list(self.k_list), "replications": self.replications,
            "grid": self.grid.to_dict(), "seed": self.seed,
            "kernel": self.kernel.to_dict(),
        }


@dataclass(frozen=True)
class CellResult:
    """One (mu_q, k, replication) cell of the study."""

    mu_q: float
    k: int
    replication: int
    chosen_lambda: float | None
    chosen_index: int | None
    msd: float | None
    max_pointwise_error: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Raw cells plus box summaries; quartiles are recomputable from cells."""

    config: SimConfig
    cells: tuple[CellResult, ...]
    box: dict
    failures: int
    probe_grid: tuple[float, ...] | None = None

    def msd_values(self, mu_q: float, k: int) -> list[float]:
        return [c.msd for c in self.cells
                if c.mu_q == mu_q and c.k == k and c.error is None]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "cells": [asdict(c) for c in self.cells],
            "box_stats": self.box,
            "failures": self.failures,
            "probe_grid": list(self.probe_grid) if self.probe_grid is not None else None,
        }


def _run_cell(config: SimConfig, mu_q: float, replication: int,
              probe_grid: np.ndarray | None) -> list[CellResult]:
    """All k values for one (mu_q, replication) draw; isolated failures."""
    seed_p = derive_seed(config.seed, _float_bits(mu_q), replication, 0)
    seed_q = derive_seed(config.seed, _float_bits(mu_q), replication, 1)
    try:
        xp = sample_normal(config.mu_p, config.var_p, config.n, seed_p, "p")
        xq = sample_normal(mu_q, config.var_q, config.m, seed_q, "q")
        gram = assemble_gram(config.kernel, xp, xq)
        traces = [quasi_optimality(gram, k, config.grid) for k in config.k_list]
        # msd reads the ladder's row; only the probe grid needs a model's expansion
        models = [None if probe_grid is None
                  else fit_spectral(gram, iterated_lavrentiev(trace.chosen_lambda, k))
                  for k, trace in zip(config.k_list, traces)]
    except (InputError, NumericalError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        return [CellResult(mu_q=mu_q, k=k, replication=replication,
                           chosen_lambda=None, chosen_index=None, msd=None,
                           error=message)
                for k in config.k_list]

    ratio = (mu_q, config.mu_p, config.var_p, config.var_q)
    truth_on_grid = None if probe_grid is None else true_beta(probe_grid[:, 0], *ratio)
    return [CellResult(mu_q=mu_q, k=k, replication=replication,
                       chosen_lambda=trace.chosen_lambda, chosen_index=trace.chosen_index,
                       msd=msd(xp.points, trace.chosen_values, *ratio),
                       max_pointwise_error=None if model is None else float(
                           np.abs(truth_on_grid - evaluate_batch(model, probe_grid)).max()))
            for k, trace, model in zip(config.k_list, traces, models)]


def run_study(config: SimConfig, probe_grid=None) -> ExperimentReport:
    """Run the full replication study.

    Cells are seeded independently and sorted before aggregation, so the
    result depends on the inputs alone.  ``probe_grid`` (1-d,
    optional) additionally records each cell's maximum absolute
    pointwise error over that grid.
    """
    grid_arr = None if probe_grid is None else _as_points(probe_grid, name="probe_grid")
    if grid_arr is not None and (grid_arr.size == 0 or grid_arr.shape[1] != 1):
        raise InputError(f"probe_grid must be a non-empty 1-d grid, got shape {grid_arr.shape}")

    cells = sorted(
        (cell for mu_q in config.mu_q_list for rep in range(config.replications)
         for cell in _run_cell(config, mu_q, rep, grid_arr)),
        key=lambda c: (config.mu_q_list.index(c.mu_q), c.k, c.replication))

    report = ExperimentReport(
        config=config, cells=tuple(cells), box={},
        failures=sum(1 for c in cells if c.error is not None),
        probe_grid=tuple(grid_arr[:, 0].tolist()) if grid_arr is not None else None)
    for mu_q in config.mu_q_list:
        completed = {str(k): report.msd_values(mu_q, k) for k in config.k_list}
        report.box[repr(mu_q)] = {k: box_stats(values) if values else None
                                  for k, values in completed.items()}
    return report


# ---------------------------------------------------------------------------
# Report serialization: JSON (full) + two CSVs for external plotting.

def save_report_json(report: ExperimentReport, path) -> None:
    save_json(report.to_dict(), path)


def save_report_csv(report: ExperimentReport, path) -> None:
    """One row per replication cell: mu_q, k, replication, chosen_lambda, msd."""
    save_csv([["mu_q", "k", "replication", "chosen_lambda", "msd"]]
             + [[cell.mu_q, cell.k, cell.replication, cell.chosen_lambda, cell.msd]
                for cell in report.cells], path)


def save_box_csv(report: ExperimentReport, path) -> None:
    """One row per (mu_q, k) with a completed cell: its five box statistics."""
    names = ("min", "q1", "median", "q3", "max")
    save_csv([["mu_q", "k", *names]]
             + [[mu_q, k, *(stats[name] for name in names)]
                for mu_q in report.config.mu_q_list for k in report.config.k_list
                if (stats := report.box[repr(mu_q)][str(k)]) is not None], path)


# ---------------------------------------------------------------------------
# Convergence-rate fits.

def fit_log_slope(n_values, errors) -> float:
    """Least-squares slope of log(error) against log(n**-0.5).

    An error sequence c * (n**-0.5)**r comes back as exactly r up to
    floating rounding in the logs.
    """
    n_arr = finite_array(n_values, "n_values")
    err = finite_array(errors, "errors")
    if n_arr.size != err.size or n_arr.size < 2:
        raise InputError("need at least two (n, error) pairs with matching lengths")
    if (err <= 0.0).any():
        raise InputError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(n_arr**-0.5), np.log(err), 1)[0])


@dataclass(frozen=True)
class RateRecord:
    """Median errors along an n grid with fitted log-log slopes."""

    n_list: tuple[int, ...]
    eta: float
    varsigma: float
    iterations: int
    replications: int
    seed: int
    mu_q: float
    probe_x: float
    lambdas: tuple[float, ...]
    pointwise_medians: tuple[float, ...]
    rms_medians: tuple[float, ...]
    pointwise_slope: float | None
    rms_slope: float | None
    insufficient_points: bool


def save_rate_json(record: RateRecord, path) -> None:
    save_json(asdict(record), path)


def run_rate_study(n_list, eta: float, varsigma: float, iterations: int,
                   replications: int, seed: int, mu_q: float = 2.0,
                   probe_x: float | None = None,
                   kernel: KernelSpec | None = None) -> RateRecord:
    """Empirical error decay along an increasing n grid, m = n per point.

    Each point fits at the a-priori strength lambda_mn(n, n, eta,
    varsigma) and records the median (over replications) absolute error
    at the probe point (default: mu_q, the target mode) and the median
    root-mean-square error over the reference sample.  Slopes of
    log-error against log(n**-0.5) are emitted, not asserted; with a
    single n they are None and the record is marked insufficient.
    """
    n_seq = [whole_number(n, "n_list entry") for n in n_list]
    if not n_seq:
        raise InputError("n_list must be non-empty")
    if any(b <= a for a, b in zip(n_seq, n_seq[1:])):
        raise InputError(f"n_list must be strictly increasing, got {n_seq}")
    iterations = iteration_count(iterations, "iterations")
    replications = whole_number(replications, "replications")
    seed = whole_number(seed, "seed", minimum=None)  # masked to 64 bits by derive_seed
    mu_q = finite_real(mu_q, "mu_q")
    probe = mu_q if probe_x is None else finite_real(probe_x, "probe_x")
    lambdas = [lambda_mn(n, n, eta, varsigma) for n in n_seq]
    kernel = KernelSpec() if kernel is None else kernel
    truth_at_probe = true_beta(probe, mu_q)

    point_meds, rms_meds = [], []
    for n, lam in zip(n_seq, lambdas):
        point_errors, rms_errors = [], []
        for rep in range(replications):
            seed_p = derive_seed(seed, n, rep, 0)
            seed_q = derive_seed(seed, n, rep, 1)
            xp = sample_normal(MU_P, VAR_P, n, seed_p, "p")
            xq = sample_normal(mu_q, VAR_Q, n, seed_q, "q")
            gram = assemble_gram(kernel, xp, xq)
            model = fit_iterated_lavrentiev(gram, lam, iterations)
            fitted_at_probe = float(evaluate_batch(model, [[probe]])[0])
            point_errors.append(abs(truth_at_probe - fitted_at_probe))
            rms_errors.append(math.sqrt(msd(xp.points, model.values_at_xp, mu_q)))
        point_meds.append(nearest_rank_quantile(sorted(point_errors), 0.5))
        rms_meds.append(nearest_rank_quantile(sorted(rms_errors), 0.5))

    insufficient = len(n_seq) < 2
    return RateRecord(
        n_list=tuple(n_seq), eta=float(eta), varsigma=float(varsigma),
        iterations=iterations, replications=replications,
        seed=seed, mu_q=mu_q, probe_x=probe,
        lambdas=tuple(lambdas), pointwise_medians=tuple(point_meds),
        rms_medians=tuple(rms_meds),
        pointwise_slope=None if insufficient else fit_log_slope(n_seq, point_meds),
        rms_slope=None if insufficient else fit_log_slope(n_seq, rms_meds),
        insufficient_points=insufficient)
