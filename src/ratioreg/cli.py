"""Command-line surface: fit and evaluate models, run the study and sweeps.

One binary with subcommands.  Every subcommand accepts --config pointing
at a JSON object whose keys are the flag names (underscored).  The file
is read as flags placed ahead of the command line's own, so explicit
flags win and a bad value gets the message of the same bad flag; a list
flag also takes a JSON array, and null leaves a flag that has no default
unset.  Errors, a malformed command line included, leave one
machine-readable JSON line on stderr and map to exit codes: 1 for I/O
problems, 2 for validation, 3 for numerical breakdown.
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
from .errors import (InputError, NumericalError, load_json, positive_real, require_keys,
                     save_csv, save_json, whole_number)


def _fail(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _list_of(convert):
    """An argparse type: comma-separated text as a list of ``convert`` values."""
    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",") if v.strip()]
    parse.__name__ = f"{convert.__name__} list"  # argparse names the type in its errors
    return parse


_INTS, _FLOATS = _list_of(int), _list_of(float)


def _config_flags(path: str, flags: dict) -> list[str]:
    """The JSON object in the config file at ``path`` as "--flag=text" arguments.

    A text flag takes a string without NUL, a list flag also an array
    (joined with ","); a typed flag gets the JSON text of its value for
    its type to convert, as on the command line.  ``null`` leaves a flag
    that has no default unset.
    """
    loaded = load_json(path, "config file")
    require_keys(loaded, (), f"config file {path}")
    argv = []
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key not in flags:
            raise InputError(f"unknown config key {key!r} for this command")
        kind, default, _ = flags[key]
        if value is None and default is None:
            continue
        listed = kind in (_INTS, _FLOATS)
        if listed and isinstance(value, list):
            value = ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)
        elif (kind is None or listed) and not (isinstance(value, str) and "\0" not in value):
            raise InputError(f"config key {key!r} must be a string without NUL "
                             f"characters, got {value!r}")
        text = value if isinstance(value, str) else json.dumps(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


def _require(options: dict, key: str) -> object:
    if options[key] is None:
        raise InputError(f"--{key.replace('_', '-')} is required")
    return options[key]


def _kernel_from_options(options: dict) -> kernel.KernelSpec:
    return kernel.KernelSpec(family=options["kernel_family"],
                             bandwidth=options["bandwidth"], offset=options["offset"])


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.

def cmd_fit(options: dict) -> int:
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


def cmd_evaluate(options: dict) -> int:
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
        save_csv([[f"x{i}" for i in range(points.dim)] + ["value"],
                  *np.column_stack([points.points, values])], out_path)
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


def cmd_simulate(options: dict) -> int:
    config = experiment.SimConfig(
        n=options["n"], m=options["m"],
        mu_p=options["mu_p"], var_p=positive_real(options["var_p"], "--var-p"),
        mu_q_list=tuple(options["mu_q_list"]),
        var_q=positive_real(options["var_q"], "--var-q"),
        k_list=tuple(options["k_list"]),
        replications=options["replications"],
        grid=selection.LambdaGrid(lambda_0=options["lambda_0"], rho=options["rho"],
                                  size=options["grid_size"]),
        seed=options["seed"],
        kernel=_kernel_from_options(options))
    if options["threads"] is not None:
        whole_number(options["threads"], "--threads")  # checked, then ignored
    report = experiment.run_study(config)
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


def cmd_rates(options: dict) -> int:
    record = experiment.run_rate_study(
        n_list=options["n_list"], eta=options["eta"],
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


def cmd_capacity(options: dict) -> int:
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


def cmd_check_schemes(options: dict) -> int:
    scheme = regularization.RegScheme(options["kind"], positive_real(options["lam"], "--lam"),
                                      options["iterations"])
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
        "mu_q_list": (_FLOATS, ",".join(f"{v:g}" for v in _STUDY.mu_q_list),
                      "comma-separated target means"),
        "var_q": (float, _STUDY.var_q, "target variance"),
        "k_list": (_INTS, ",".join(map(str, _STUDY.k_list)), "comma-separated iteration counts"),
        "replications": (int, _STUDY.replications, "replications per cell"),
        "lambda_0": (float, _STUDY.grid.lambda_0, "top of the strength ladder"),
        "rho": (float, _STUDY.grid.rho, "ladder ratio in (0,1) (default: (1/9)**(1/9))"),
        "grid_size": (int, _STUDY.grid.size, "ladder length below the anchor"),
        "seed": (int, _STUDY.seed, "master seed"),
        "threads": (int, None, "accepted and ignored, as the study runs in one "
                               "thread; must be a whole number >= 1"),
        "out_dir": (None, ".", "output directory (default: current directory)"),
        **_KERNEL_FLAGS,
    }),
    "rates": (cmd_rates, "empirical convergence-rate sweep", {
        "n_list": (_INTS, "50,100,200,400", "increasing sample sizes"),
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
        "t_max": (float, _KERNEL.diagonal_value(), "right end of the spectral grid (default: "
                  f"{_KERNEL.diagonal_value()}, the diagonal value of the default kernel)"),
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
                             default=default, help=text)
        sub.set_defaults(handler=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed command line, a --config file read as flags ahead of its own."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in vars(args).items():
        if isinstance(value, str) and "\0" in value:
            raise InputError(f"--{key.replace('_', '-')} must not contain NUL characters")
    if args.config is None:
        return args
    # the command line's flags come last, and argparse keeps a flag's last value
    after = argv.index(args.command) + 1
    return parser.parse_args(argv[:after] + _config_flags(
        args.config, _COMMANDS[args.command][2]) + argv[after:])


def main(argv=None) -> int:
    try:
        # in a function of its own, the parser (about 50 KB) is not live while the handler runs
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.handler(vars(args))
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
