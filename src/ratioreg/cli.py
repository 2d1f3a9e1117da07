"""Command-line surface: fit and evaluate models, run the study and sweeps.

One binary with subcommands.  Every subcommand accepts --config pointing
at a JSON file whose keys are the flag names (underscored); explicit
flags override the file, the file overrides built-in defaults.  Errors
leave a machine-readable JSON object on stderr and map to exit codes:
1 for I/O problems, 2 for validation, 3 for numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import capacity as capacity_mod
from . import estimator, experiment, kernel, regularization, selection
from .errors import InputError, NumericalError


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _int_list(value) -> list[int]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a comma-separated integer list, got {value!r}") from exc


def _float_list(value) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a comma-separated number list, got {value!r}") from exc


def _merged_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicit flags (flags win).

    A config value goes through the same type conversion as its flag, so
    a value the flag would reject is an InputError here too.  A typed flag
    also rejects a JSON boolean, and an integer flag a JSON float: int()
    and float() would turn 4.7 into 4 and true into 1 where the flags
    themselves reject "4.7" and "true".
    """
    merged = dict(defaults)
    passed = vars(args)
    config_path = passed.get("config")
    if config_path:
        with open(config_path) as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                raise InputError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"config file {config_path} must hold a JSON object, "
                             f"got {type(loaded).__name__}")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in defaults:
                raise InputError(f"unknown config key {key!r} for this command")
            convert = passed["flag_types"].get(key)
            if convert is not None and (isinstance(value, bool)
                                        or (convert is int and isinstance(value, float))):
                kind = "an integer" if convert is int else "a number"
                raise InputError(f"config key {key!r} must be {kind}, got {value!r}")
            if convert is not None and not (value is None and defaults[key] is None):
                try:
                    value = convert(value)
                except (TypeError, ValueError) as exc:
                    raise InputError(f"config key {key!r} has an invalid value "
                                     f"{value!r}: {exc}") from exc
            merged[key] = value
    for key, value in passed.items():
        if key in defaults:
            merged[key] = value
    return merged


def _require(options: dict, key: str) -> object:
    if options[key] is None:
        raise InputError(f"--{key.replace('_', '-')} is required")
    return options[key]


def _positive(options: dict, key: str) -> float:
    value = float(options[key])
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(
            f"--{key.replace('_', '-')} must be finite and positive, got {value!r}")
    return value


def _kernel_from_options(options: dict) -> kernel.KernelSpec:
    offset = options.get("offset")
    return kernel.KernelSpec(
        family=options["kernel_family"],
        bandwidth=float(options["bandwidth"]),
        offset=None if offset is None else float(offset))


def _grid_from_options(options: dict) -> selection.LambdaGrid:
    return selection.LambdaGrid(
        lambda_0=float(options["lambda_0"]),
        rho=float(options["rho"]),
        size=int(options["grid_size"]))


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.

_FIT_DEFAULTS = {
    "xp": None, "xq": None, "kernel_family": "gaussian_plus_one",
    "bandwidth": 1.0, "offset": None, "lam": None, "iterations": 1,
    "out": None,
}


def cmd_fit(args: argparse.Namespace) -> int:
    options = _merged_options(args, _FIT_DEFAULTS)
    xp_path = _require(options, "xp")
    xq_path = _require(options, "xq")
    out_path = _require(options, "out")
    _require(options, "lam")
    lam = _positive(options, "lam")
    iterations = int(options["iterations"])
    spec = _kernel_from_options(options)
    xp = kernel.load_samples_csv(xp_path, measure_tag="p")
    xq = kernel.load_samples_csv(xq_path, measure_tag="q")
    gram = kernel.assemble_gram(spec, xp, xq)
    model = estimator.fit_iterated_lavrentiev(gram, xp, xq, spec, lam, iterations)
    estimator.save_model(model, out_path)
    print(f"wrote model with {gram.n} expansion coefficients to {out_path}")
    return 0


_EVALUATE_DEFAULTS = {
    "model": None, "points": None, "out": None, "format": "csv",
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    options = _merged_options(args, _EVALUATE_DEFAULTS)
    model_path = _require(options, "model")
    points_path = _require(options, "points")
    out_path = _require(options, "out")
    if options["format"] not in ("csv", "json"):
        raise InputError(f"--format must be csv or json, got {options['format']!r}")
    model = estimator.load_model(model_path)
    points = kernel.load_samples_csv(points_path, measure_tag="p")
    values = estimator.evaluate_batch(model, points.points)
    if options["format"] == "json":
        with open(out_path, "w") as handle:
            json.dump({"points": points.points.tolist(), "values": values.tolist()},
                      handle, sort_keys=True, indent=2)
            handle.write("\n")
    else:
        import csv as csv_mod
        with open(out_path, "w", newline="") as handle:
            writer = csv_mod.writer(handle, lineterminator="\n")
            writer.writerow([f"x{i}" for i in range(points.dim)] + ["value"])
            for row, value in zip(points.points, values):
                writer.writerow([repr(float(v)) for v in row] + [repr(float(value))])
    print(f"evaluated {values.size} points to {out_path}")
    return 0


_SIMULATE_DEFAULTS = {
    "n": 100, "m": 100, "mu_p": 2.0, "var_p": 5.0, "mu_q_list": "2,3,4",
    "var_q": 0.5, "k_list": "1,2,3,5,10", "replications": 20,
    "lambda_0": 0.9, "rho": (1.0 / 9.0) ** (1.0 / 9.0), "grid_size": 9,
    "seed": 0, "threads": None, "out_dir": ".",
    "kernel_family": "gaussian_plus_one", "bandwidth": 1.0, "offset": None,
}


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
    options = _merged_options(args, _SIMULATE_DEFAULTS)
    config = experiment.SimConfig(
        n=int(options["n"]), m=int(options["m"]),
        mu_p=float(options["mu_p"]), var_p=_positive(options, "var_p"),
        mu_q_list=tuple(_float_list(options["mu_q_list"])),
        var_q=_positive(options, "var_q"),
        k_list=tuple(_int_list(options["k_list"])),
        replications=int(options["replications"]),
        grid=_grid_from_options(options), seed=int(options["seed"]),
        kernel=_kernel_from_options(options))
    threads = options["threads"]
    report = experiment.run_study(config, threads=None if threads is None else int(threads))
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


_RATES_DEFAULTS = {
    "n_list": "50,100,200,400", "eta": 1.0, "varsigma": 0.5, "iterations": 10,
    "replications": 5, "seed": 0, "mu_q": 2.0, "probe_x": None, "out": None,
    "kernel_family": "gaussian_plus_one", "bandwidth": 1.0, "offset": None,
}


def cmd_rates(args: argparse.Namespace) -> int:
    options = _merged_options(args, _RATES_DEFAULTS)
    record = experiment.run_rate_study(
        n_list=_int_list(options["n_list"]), eta=float(options["eta"]),
        varsigma=float(options["varsigma"]), iterations=int(options["iterations"]),
        replications=int(options["replications"]), seed=int(options["seed"]),
        mu_q=float(options["mu_q"]),
        probe_x=None if options["probe_x"] is None else float(options["probe_x"]),
        kernel=_kernel_from_options(options))
    if options["out"] is not None:
        experiment.save_rate_json(record, options["out"])
    if record.insufficient_points:
        print("single n point: slopes undefined (insufficient points)")
    else:
        print(f"pointwise-error slope: {record.pointwise_slope!r}")
        print(f"rms-error slope:       {record.rms_slope!r}")
    return 0


_CAPACITY_DEFAULTS = {
    "xp": None, "kernel_family": "gaussian_plus_one", "bandwidth": 1.0,
    "offset": None, "lambda_min": 0.01, "lambda_max": 1.0, "num_lambdas": 20,
    "out": None,
}


def cmd_capacity(args: argparse.Namespace) -> int:
    options = _merged_options(args, _CAPACITY_DEFAULTS)
    xp_path = _require(options, "xp")
    out_path = _require(options, "out")
    lo = _positive(options, "lambda_min")
    hi = _positive(options, "lambda_max")
    if not lo < hi:
        raise InputError(f"--lambda-min must be below --lambda-max, got {lo!r} >= {hi!r}")
    count = int(options["num_lambdas"])
    if count < 1:
        raise InputError(f"--num-lambdas must be at least 1, got {count}")
    spec = _kernel_from_options(options)
    xp = kernel.load_samples_csv(xp_path, measure_tag="p")
    gram = kernel.reference_gram(spec, xp)
    lams = np.geomspace(lo, hi, count)
    profile = capacity_mod.capacity_profile(gram, spec, xp, lams)
    capacity_mod.save_profile_csv(profile, out_path)
    summary = {"lambda_star": profile.lambda_star, "csv": str(out_path)}
    if profile.lambda_star is None:
        summary["warning"] = ("balance point not bracketed by the default "
                              "interval; lambda_star is null")
    print(json.dumps(summary, sort_keys=True))
    return 0


_CHECK_DEFAULTS = {
    "kind": "iterated_lavrentiev", "lam": 0.2, "iterations": 3, "t_max": 2.0,
    "grid_size": 2000, "qualification": None, "out": None,
}


def cmd_check_schemes(args: argparse.Namespace) -> int:
    options = _merged_options(args, _CHECK_DEFAULTS)
    scheme = regularization.RegScheme(
        kind=options["kind"], lam=_positive(options, "lam"),
        iterations=int(options["iterations"]) if options["kind"] != "spectral_cutoff" else 1)
    report = regularization.check_scheme_constants(
        scheme, t_max=_positive(options, "t_max"),
        grid_size=int(options["grid_size"]),
        qualification=(None if options["qualification"] is None
                       else float(options["qualification"])))
    if options["out"] is not None:
        with open(options["out"], "w") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    for check in report.checks:
        status = "ok       " if check.satisfied else "VIOLATED "
        print(f"{status}{check.name:<14} margin={check.margin!r} at t={check.worst_t!r}")
    print(f"all_satisfied: {str(report.all_satisfied).lower()}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.

def _add_kernel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kernel-family", dest="kernel_family", default=argparse.SUPPRESS,
                     help="kernel family: gaussian_plus_one or gaussian "
                          "(default: gaussian_plus_one)")
    sub.add_argument("--bandwidth", type=float, default=argparse.SUPPRESS,
                     help="kernel length scale (default: 1.0)")
    sub.add_argument("--offset", type=float, default=argparse.SUPPRESS,
                     help="kernel additive constant (default: 1.0 for "
                          "gaussian_plus_one, 0 for gaussian)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratioreg",
        description="Density-ratio estimation by spectral regularization in an RKHS.")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a ratio model from two CSV samples")
    fit.add_argument("--config", help="JSON file supplying flag values (flags override)")
    fit.add_argument("--xp", default=argparse.SUPPRESS,
                     help="CSV of reference points (denominator sample)")
    fit.add_argument("--xq", default=argparse.SUPPRESS,
                     help="CSV of target points (numerator sample)")
    _add_kernel_flags(fit)
    fit.add_argument("--lam", type=float, default=argparse.SUPPRESS,
                     help="regularization strength, positive (required)")
    fit.add_argument("--iterations", type=int, default=argparse.SUPPRESS,
                     help="iteration count of the shifted-inversion scheme (default: 1)")
    fit.add_argument("--out", default=argparse.SUPPRESS, help="output model JSON path")
    fit.set_defaults(handler=cmd_fit)

    evaluate = commands.add_parser("evaluate", help="evaluate a saved model at points")
    evaluate.add_argument("--config", help="JSON file supplying flag values")
    evaluate.add_argument("--model", default=argparse.SUPPRESS, help="model JSON path")
    evaluate.add_argument("--points", default=argparse.SUPPRESS,
                          help="CSV of points to evaluate")
    evaluate.add_argument("--out", default=argparse.SUPPRESS, help="output path")
    evaluate.add_argument("--format", default=argparse.SUPPRESS,
                          help="output format: csv or json (default: csv)")
    evaluate.set_defaults(handler=cmd_evaluate)

    simulate = commands.add_parser(
        "simulate", help="run the two-Gaussian replication study")
    simulate.add_argument("--config", help="JSON file supplying flag values")
    simulate.add_argument("--n", type=int, default=argparse.SUPPRESS,
                          help="reference sample size (default: 100)")
    simulate.add_argument("--m", type=int, default=argparse.SUPPRESS,
                          help="target sample size (default: 100)")
    simulate.add_argument("--mu-p", dest="mu_p", type=float, default=argparse.SUPPRESS,
                          help="reference mean (default: 2.0)")
    simulate.add_argument("--var-p", dest="var_p", type=float, default=argparse.SUPPRESS,
                          help="reference variance (default: 5.0)")
    simulate.add_argument("--mu-q-list", dest="mu_q_list", default=argparse.SUPPRESS,
                          help="comma-separated target means (default: 2,3,4)")
    simulate.add_argument("--var-q", dest="var_q", type=float, default=argparse.SUPPRESS,
                          help="target variance (default: 0.5)")
    simulate.add_argument("--k-list", dest="k_list", default=argparse.SUPPRESS,
                          help="comma-separated iteration counts (default: 1,2,3,5,10)")
    simulate.add_argument("--replications", type=int, default=argparse.SUPPRESS,
                          help="replications per cell (default: 20)")
    simulate.add_argument("--lambda-0", dest="lambda_0", type=float,
                          default=argparse.SUPPRESS,
                          help="top of the strength ladder (default: 0.9)")
    simulate.add_argument("--rho", type=float, default=argparse.SUPPRESS,
                          help="ladder ratio in (0,1) (default: (1/9)**(1/9))")
    simulate.add_argument("--grid-size", dest="grid_size", type=int,
                          default=argparse.SUPPRESS,
                          help="ladder length below the anchor (default: 9)")
    simulate.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                          help="master seed (default: 0)")
    simulate.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                          help="worker threads (default: all available cores)")
    simulate.add_argument("--out-dir", dest="out_dir", default=argparse.SUPPRESS,
                          help="output directory (default: current directory)")
    _add_kernel_flags(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    rates = commands.add_parser("rates", help="empirical convergence-rate sweep")
    rates.add_argument("--config", help="JSON file supplying flag values")
    rates.add_argument("--n-list", dest="n_list", default=argparse.SUPPRESS,
                       help="increasing sample sizes (default: 50,100,200,400)")
    rates.add_argument("--eta", type=float, default=argparse.SUPPRESS,
                       help="source-condition order (default: 1.0)")
    rates.add_argument("--varsigma", type=float, default=argparse.SUPPRESS,
                       help="embedding index in [0, 0.5] (default: 0.5)")
    rates.add_argument("--iterations", type=int, default=argparse.SUPPRESS,
                       help="iteration count (default: 10)")
    rates.add_argument("--replications", type=int, default=argparse.SUPPRESS,
                       help="replications per n (default: 5)")
    rates.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="master seed (default: 0)")
    rates.add_argument("--mu-q", dest="mu_q", type=float, default=argparse.SUPPRESS,
                       help="target mean (default: 2.0)")
    rates.add_argument("--probe-x", dest="probe_x", type=float, default=argparse.SUPPRESS,
                       help="pointwise-error probe (default: mu_q)")
    rates.add_argument("--out", default=argparse.SUPPRESS, help="output record JSON path")
    _add_kernel_flags(rates)
    rates.set_defaults(handler=cmd_rates)

    capacity = commands.add_parser("capacity", help="capacity diagnostics sweep")
    capacity.add_argument("--config", help="JSON file supplying flag values")
    capacity.add_argument("--xp", default=argparse.SUPPRESS,
                          help="CSV of reference points")
    _add_kernel_flags(capacity)
    capacity.add_argument("--lambda-min", dest="lambda_min", type=float,
                          default=argparse.SUPPRESS,
                          help="smallest strength (default: 0.01)")
    capacity.add_argument("--lambda-max", dest="lambda_max", type=float,
                          default=argparse.SUPPRESS,
                          help="largest strength (default: 1.0)")
    capacity.add_argument("--num-lambdas", dest="num_lambdas", type=int,
                          default=argparse.SUPPRESS,
                          help="grid length (default: 20)")
    capacity.add_argument("--out", default=argparse.SUPPRESS,
                          help="output profile CSV path")
    capacity.set_defaults(handler=cmd_capacity)

    check = commands.add_parser(
        "check-schemes", help="verify filter inequalities for a scheme")
    check.add_argument("--config", help="JSON file supplying flag values")
    check.add_argument("--kind", default=argparse.SUPPRESS,
                       help="scheme kind (default: iterated_lavrentiev)")
    check.add_argument("--lam", type=float, default=argparse.SUPPRESS,
                       help="regularization strength (default: 0.2)")
    check.add_argument("--iterations", type=int, default=argparse.SUPPRESS,
                       help="iteration count (default: 3)")
    check.add_argument("--t-max", dest="t_max", type=float, default=argparse.SUPPRESS,
                       help="right end of the spectral grid (default: 2.0, "
                            "the diagonal value of the default kernel)")
    check.add_argument("--grid-size", dest="grid_size", type=int,
                       default=argparse.SUPPRESS,
                       help="log-grid resolution (default: 2000)")
    check.add_argument("--qualification", type=float, default=argparse.SUPPRESS,
                       help="override the qualification order to test a claim "
                            "(default: the scheme's own)")
    check.add_argument("--out", default=argparse.SUPPRESS,
                       help="optional JSON report path")
    check.set_defaults(handler=cmd_check_schemes)

    # _merged_options converts config-file values with their flags' types.
    for sub in commands.choices.values():
        sub.set_defaults(flag_types={action.dest: action.type for action in sub._actions
                                     if action.type is not None})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
