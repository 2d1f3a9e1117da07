"""Command-line surface: fit and evaluate models, run the study and sweeps.

One binary with subcommands.  Every subcommand accepts --config pointing
at a JSON file whose keys are the flag names (underscored); explicit
flags override the file, the file overrides built-in defaults.  Errors,
a malformed command line included, leave one machine-readable JSON line
on stderr and map to exit codes: 1 for I/O problems, 2 for validation,
3 for numerical breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import capacity as capacity_mod
from . import estimator, experiment, kernel, regularization, selection
from .errors import (InputError, NumericalError, load_json, positive_real, save_json,
                     whole_number)


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _int_list(value) -> list[int]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        # a JSON array may hold 2.7 or true, which int() would take as 2 or 1
        if any(isinstance(v, (bool, float)) for v in value):
            raise TypeError("not an integer")
        return [int(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a comma-separated integer list, got {value!r}") from exc


def _float_list(value) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        if any(isinstance(v, bool) for v in value):
            raise TypeError("not a number")
        return [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a comma-separated number list, got {value!r}") from exc


# Flags that take a comma-separated list, or a JSON array in a config file.
_LIST_KEYS = ("mu_q_list", "k_list", "n_list")


def _config_value(key: str, value, convert, default):
    """A config-file value, checked and converted like its flag's argument.

    A typed flag rejects a JSON boolean, and an integer flag a JSON float:
    int() and float() would turn 4.7 into 4 and true into 1 where the flags
    themselves reject "4.7" and "true".  An untyped flag takes a string
    (a list flag also an array), as on the command line.
    """
    if value is None and default is None:
        return None
    if convert is None:
        if (isinstance(value, str) and "\0" not in value) or (
                key in _LIST_KEYS and isinstance(value, list)):
            return value
        raise InputError(f"config key {key!r} must be a string without NUL "
                         f"characters, got {value!r}")
    if isinstance(value, bool) or (convert is int and isinstance(value, float)):
        kind = "an integer" if convert is int else "a number"
        raise InputError(f"config key {key!r} must be {kind}, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config key {key!r} has an invalid value {value!r}: {exc}") from exc


def _merged_options(args: argparse.Namespace) -> dict:
    """The command's defaults <- config file <- explicit flags (flags win)."""
    flags = _COMMANDS[args.command][2]
    defaults = {dest: default for dest, (_, default, _) in flags.items()}
    merged = dict(defaults)
    passed = vars(args)
    for key, value in passed.items():
        if isinstance(value, str) and "\0" in value:
            raise InputError(f"--{key.replace('_', '-')} must not contain NUL characters")
    config_path = passed.get("config")
    if config_path:
        loaded = load_json(config_path, "config file")
        if not isinstance(loaded, dict):
            raise InputError(f"config file {config_path} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in defaults:
                raise InputError(f"unknown config key {key!r} for this command")
            merged[key] = _config_value(key, value, flags[key][0], defaults[key])
    for key, value in passed.items():
        if key in defaults:
            merged[key] = value
    return merged


def _require(options: dict, key: str) -> object:
    if options[key] is None:
        raise InputError(f"--{key.replace('_', '-')} is required")
    return options[key]


def _kernel_from_options(options: dict) -> kernel.KernelSpec:
    return kernel.KernelSpec(family=options["kernel_family"],
                             bandwidth=options["bandwidth"], offset=options["offset"])


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.

def cmd_fit(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    xp_path = _require(options, "xp")
    xq_path = _require(options, "xq")
    out_path = _require(options, "out")
    lam = positive_real(_require(options, "lam"), "--lam")
    spec = _kernel_from_options(options)
    xp = kernel.load_samples_csv(xp_path, measure_tag="p")
    xq = kernel.load_samples_csv(xq_path, measure_tag="q")
    gram = kernel.assemble_gram(spec, xp, xq)
    model = estimator.fit_iterated_lavrentiev(gram, lam, options["iterations"])
    estimator.save_model(model, out_path)
    print(f"wrote model with {gram.n} expansion coefficients to {out_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    model_path = _require(options, "model")
    points_path = _require(options, "points")
    out_path = _require(options, "out")
    if options["format"] not in ("csv", "json"):
        raise InputError(f"--format must be csv or json, got {options['format']!r}")
    model = estimator.load_model(model_path)
    points = kernel.load_samples_csv(points_path, measure_tag="p")
    values = estimator.evaluate_batch(model, points.points)
    if options["format"] == "json":
        save_json({"points": points.points.tolist(), "values": values.tolist()}, out_path)
    else:
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([f"x{i}" for i in range(points.dim)] + ["value"])
            for row, value in zip(points.points, values):
                writer.writerow([repr(float(v)) for v in row] + [repr(float(value))])
    print(f"evaluated {values.size} points to {out_path}")
    return 0


def _median_table(report: experiment.ExperimentReport) -> str:
    config = report.config
    k_list = list(config.k_list)
    header = "mu_q    " + "".join(f"k={k:<12}" for k in k_list)
    lines = [header]
    for mu_q in config.mu_q_list:
        stats = report.box[repr(mu_q)]
        medians = {k: (stats[str(k)]["median"] if stats[str(k)] else math.nan)
                   for k in k_list}
        base = medians[k_list[0]]
        cells = []
        for k in k_list:
            marker = ""
            if k != k_list[0] and math.isfinite(base):
                marker = " <=" if medians[k] <= base else " >"
            cells.append(f"{medians[k]:<9.5f}{marker:<4}")
        lines.append(f"{mu_q:<8}" + "".join(cells))
    return "\n".join(lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    config = experiment.SimConfig(
        n=options["n"], m=options["m"],
        mu_p=options["mu_p"], var_p=positive_real(options["var_p"], "--var-p"),
        mu_q_list=tuple(_float_list(options["mu_q_list"])),
        var_q=positive_real(options["var_q"], "--var-q"),
        k_list=tuple(_int_list(options["k_list"])),
        replications=options["replications"],
        grid=selection.LambdaGrid(lambda_0=options["lambda_0"], rho=options["rho"],
                                  size=options["grid_size"]),
        seed=options["seed"],
        kernel=_kernel_from_options(options))
    report = experiment.run_study(config, threads=options["threads"])
    out_dir = options["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    experiment.save_report_json(report, os.path.join(out_dir, "report.json"))
    experiment.save_report_csv(report, os.path.join(out_dir, "replications.csv"))
    experiment.save_box_csv(report, os.path.join(out_dir, "box_stats.csv"))
    print(f"study complete: {len(report.cells)} cells, {report.failures} failures")
    print("median msd by target mean and iteration count "
          "(<= marks iterated runs not worse than the single step):")
    print(_median_table(report))
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    record = experiment.run_rate_study(
        n_list=_int_list(options["n_list"]), eta=options["eta"],
        varsigma=options["varsigma"], iterations=options["iterations"],
        replications=options["replications"], seed=options["seed"],
        mu_q=options["mu_q"], probe_x=options["probe_x"],
        kernel=_kernel_from_options(options))
    if options["out"] is not None:
        experiment.save_rate_json(record, options["out"])
    if record.insufficient_points:
        print("single n point: slopes undefined (insufficient points)")
    else:
        print(f"pointwise-error slope: {record.pointwise_slope!r}")
        print(f"rms-error slope:       {record.rms_slope!r}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    xp_path = _require(options, "xp")
    out_path = _require(options, "out")
    lo = positive_real(options["lambda_min"], "--lambda-min")
    hi = positive_real(options["lambda_max"], "--lambda-max")
    if not lo < hi:
        raise InputError(f"--lambda-min must be below --lambda-max, got {lo!r} >= {hi!r}")
    count = whole_number(options["num_lambdas"], "--num-lambdas")
    spec = _kernel_from_options(options)
    xp = kernel.load_samples_csv(xp_path, measure_tag="p")
    gram = kernel.assemble_gram(spec, xp)
    lams = np.geomspace(lo, hi, count)
    profile = capacity_mod.capacity_profile(gram, lams)
    capacity_mod.save_profile_csv(profile, out_path)
    summary = {"lambda_star": profile.lambda_star, "csv": str(out_path)}
    if profile.lambda_star is None:
        summary["warning"] = ("balance point not bracketed by the default "
                              "interval; lambda_star is null")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_check_schemes(args: argparse.Namespace) -> int:
    options = _merged_options(args)
    scheme = regularization.RegScheme(
        kind=options["kind"], lam=positive_real(options["lam"], "--lam"),
        iterations=options["iterations"] if options["kind"] != "spectral_cutoff" else 1)
    report = regularization.check_scheme_constants(
        scheme, t_max=positive_real(options["t_max"], "--t-max"),
        grid_size=options["grid_size"], qualification=options["qualification"])
    if options["out"] is not None:
        save_json(report.to_dict(), options["out"])
    for check in report.checks:
        status = "ok       " if check.satisfied else "VIOLATED "
        print(f"{status}{check.name:<14} margin={check.margin!r} at t={check.worst_t!r}")
    print(f"all_satisfied: {str(report.all_satisfied).lower()}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an InputError, like any other bad input."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# Per subcommand: handler, summary and a table dest -> (type, default, help)
# of its flags --<dest with "-" for "_">.  The help gains "(default: ...)"
# for a default other than None unless it names one itself.
_KERNEL = kernel.KernelSpec()
_STUDY = experiment.SimConfig()

_KERNEL_FLAGS = {
    "kernel_family": (None, _KERNEL.family, "kernel family: gaussian_plus_one or gaussian"),
    "bandwidth": (float, _KERNEL.bandwidth, "kernel length scale"),
    "offset": (float, None, "kernel additive constant (default: 1.0 for "
                            "gaussian_plus_one, 0 for gaussian)"),
}

_COMMANDS = {
    "fit": (cmd_fit, "fit a ratio model from two CSV samples", {
        "xp": (None, None, "CSV of reference points (denominator sample)"),
        "xq": (None, None, "CSV of target points (numerator sample)"),
        **_KERNEL_FLAGS,
        "lam": (float, None, "regularization strength, positive (required)"),
        "iterations": (int, 1, "iteration count of the shifted-inversion scheme"),
        "out": (None, None, "output model JSON path"),
    }),
    "evaluate": (cmd_evaluate, "evaluate a saved model at points", {
        "model": (None, None, "model JSON path"),
        "points": (None, None, "CSV of points to evaluate"),
        "out": (None, None, "output path"),
        "format": (None, "csv", "output format: csv or json"),
    }),
    "simulate": (cmd_simulate, "run the two-Gaussian replication study", {
        "n": (int, _STUDY.n, "reference sample size"),
        "m": (int, _STUDY.m, "target sample size"),
        "mu_p": (float, _STUDY.mu_p, "reference mean"),
        "var_p": (float, _STUDY.var_p, "reference variance"),
        "mu_q_list": (None, ",".join(f"{v:g}" for v in _STUDY.mu_q_list),
                      "comma-separated target means"),
        "var_q": (float, _STUDY.var_q, "target variance"),
        "k_list": (None, ",".join(map(str, _STUDY.k_list)), "comma-separated iteration counts"),
        "replications": (int, _STUDY.replications, "replications per cell"),
        "lambda_0": (float, _STUDY.grid.lambda_0, "top of the strength ladder"),
        "rho": (float, _STUDY.grid.rho, "ladder ratio in (0,1) (default: (1/9)**(1/9))"),
        "grid_size": (int, _STUDY.grid.size, "ladder length below the anchor"),
        "seed": (int, _STUDY.seed, "master seed"),
        "threads": (int, None, "worker threads (default: all available cores)"),
        "out_dir": (None, ".", "output directory (default: current directory)"),
        **_KERNEL_FLAGS,
    }),
    "rates": (cmd_rates, "empirical convergence-rate sweep", {
        "n_list": (None, "50,100,200,400", "increasing sample sizes"),
        "eta": (float, 1.0, "source-condition order"),
        "varsigma": (float, 0.5, "embedding index in [0, 0.5]"),
        "iterations": (int, 10, "iteration count"),
        "replications": (int, 5, "replications per n"),
        "seed": (int, 0, "master seed"),
        "mu_q": (float, 2.0, "target mean"),
        "probe_x": (float, None, "pointwise-error probe (default: mu_q)"),
        "out": (None, None, "output record JSON path"),
        **_KERNEL_FLAGS,
    }),
    "capacity": (cmd_capacity, "capacity diagnostics sweep", {
        "xp": (None, None, "CSV of reference points"),
        **_KERNEL_FLAGS,
        "lambda_min": (float, 0.01, "smallest strength"),
        "lambda_max": (float, 1.0, "largest strength"),
        "num_lambdas": (int, 20, "grid length"),
        "out": (None, None, "output profile CSV path"),
    }),
    "check-schemes": (cmd_check_schemes, "verify filter inequalities for a scheme", {
        "kind": (None, "iterated_lavrentiev", "scheme kind"),
        "lam": (float, 0.2, "regularization strength"),
        "iterations": (int, 3, "iteration count"),
        "t_max": (float, 2.0, "right end of the spectral grid (default: 2.0, "
                              "the diagonal value of the default kernel)"),
        "grid_size": (int, 2000, "log-grid resolution"),
        "qualification": (float, None, "override the qualification order to test a "
                                       "claim (default: the scheme's own)"),
        "out": (None, None, "optional JSON report path"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratioreg",
        description="Density-ratio estimation by spectral regularization in an RKHS.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--config", help="JSON file supplying flag values"
                         + (" (flags override)" if name == "fit" else ""))
        for dest, (kind, default, text) in flags.items():
            if default is not None and "(default" not in text:
                text += f" (default: {default})"
            sub.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind,
                             default=argparse.SUPPRESS, help=text)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except InputError as exc:
        _fail("validation", str(exc))
        return 2
    except NumericalError as exc:
        _fail("numerical", str(exc))
        return 3
    except OSError as exc:
        _fail("io", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
