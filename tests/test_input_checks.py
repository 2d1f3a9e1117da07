"""The library's input contract: a malformed number or array raises InputError.

Every entry point checks its strengths, counts, sizes and means through
the three checkers in ``ratioreg.errors``, and its arrays through
``finite_array``.  A bool, a string, a
non-finite value or a fractional count is rejected with InputError, never
coerced, truncated or let through to fail later as another exception.
The CLI runs below go through a fresh process, so a warning printed on
the way would show up on stderr.
"""

from __future__ import annotations

import dataclasses
import fractions
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import ratioreg as rr
from ratioreg.cli import main
from ratioreg.errors import (MAX_ITERATIONS, finite_real, iteration_count, positive_real,
                             whole_number)
from ratioreg.experiment import nearest_rank_quantile
from ratioreg.regularization import iterated_filter_rows
from ratioreg.selection import choose_from_values

INF, NAN = math.inf, math.nan
RATE = {"eta": 1.0, "varsigma": 0.5, "iterations": 1, "replications": 1, "seed": 0}
SINGLE = rr.iterated_lavrentiev(0.5, 1)  # one shifted inversion

# (entry point, bad value): a call on the session's small Gram system.
BAD_CALLS = {
    # a fractional or boolean count is not truncated
    "SimConfig k_list 2.5": lambda g: rr.SimConfig(k_list=(1, 2.5)),
    "SimConfig k_list True": lambda g: rr.SimConfig(k_list=(True,)),
    "run_rate_study n_list 30.7": lambda g: rr.run_rate_study([30.7, 60], **RATE),
    "SimConfig n 100.5": lambda g: rr.SimConfig(n=100.5),
    "SimConfig m 1": lambda g: rr.SimConfig(m=1),
    "SimConfig replications 1.5": lambda g: rr.SimConfig(replications=1.5),
    "LambdaGrid size inf": lambda g: rr.LambdaGrid(size=INF),
    "LambdaGrid size nan": lambda g: rr.LambdaGrid(size=NAN),
    "LambdaGrid size True": lambda g: rr.LambdaGrid(size=True),
    "lambda_mn m inf": lambda g: rr.lambda_mn(INF, 10, 1.0, 0.5),
    "lambda_mn n 10.5": lambda g: rr.lambda_mn(10, 10.5, 1.0, 0.5),
    "lambda_mn eta True": lambda g: rr.lambda_mn(10, 10, True, 0.5),
    "lambda_mn varsigma nan": lambda g: rr.lambda_mn(10, 10, 1.0, NAN),
    # a strength that is a bool or a string
    "ladder lam True": lambda g: rr.fit_iterated_lavrentiev_ladder(g, [True], 1),
    "ladder lam '0.5'": lambda g: rr.fit_iterated_lavrentiev_ladder(g, ["0.5"], 1),
    "ladder count 2.5": lambda g: rr.fit_iterated_lavrentiev_ladder(g, [0.5], 2.5),
    "ladder count True": lambda g: rr.fit_iterated_lavrentiev_ladder(g, [0.5], True),
    "effective_dimension lam True": lambda g: rr.effective_dimension(g, True),
    "effective_dimension lam '0.5'": lambda g: rr.effective_dimension(g, "0.5"),
    "christoffel lam True": lambda g: rr.christoffel(g, True, [0.0]),
    "capacity_profile lam True": lambda g: rr.capacity_profile(g, [0.5, True]),
    "capacity_profile lam '0.5'": lambda g: rr.capacity_profile(g, "0.5"),
    "default_probe_grid count 2.5": lambda g: rr.default_probe_grid(g.xp, 2.5),
    "LambdaGrid lambda_0 True": lambda g: rr.LambdaGrid(lambda_0=True),
    "LambdaGrid lambda_0 '0.5'": lambda g: rr.LambdaGrid(lambda_0="0.5"),
    "LambdaGrid rho '0.5'": lambda g: rr.LambdaGrid(rho="0.5"),
    "fit lam True": lambda g: rr.fit_iterated_lavrentiev(g, True),
    "fit iterations 2.5": lambda g: rr.fit_iterated_lavrentiev(g, 0.5, 2.5),
    "fit lam 1e308, n lam overflows": lambda g: rr.fit_iterated_lavrentiev(g, 1e308),
    "fit offset 1e308, k(x, x) + n lam overflows": lambda g: rr.fit_iterated_lavrentiev(
        rr.assemble_gram(rr.KernelSpec(offset=1e308), rr.SampleSet([0.0], "p"),
                         rr.SampleSet([0.5], "q")), 1.5e308),
    "KernelSpec bandwidth 1e200, 2h^2 overflows": lambda g: rr.KernelSpec(bandwidth=1e200),
    "KernelSpec bandwidth 1e-200, 2h^2 vanishes": lambda g: rr.KernelSpec(bandwidth=1e-200),
    "check qualification 400, lam**s overflows": lambda g: rr.check_scheme_constants(
        rr.iterated_lavrentiev(10.0, 1), 2.0, qualification=400.0),
    "model mu_coeff True": lambda g: rr.RatioModel.from_dict(
        dict(rr.fit_spectral(g, SINGLE).to_dict(), mu_coeff=True)),
    "model alpha True": lambda g: rr.RatioModel.from_dict(
        dict(rr.fit_spectral(g, SINGLE).to_dict(), alpha=[True] * g.n)),
    "model xp_points '0.5'": lambda g: rr.RatioModel.from_dict(
        dict(rr.fit_spectral(g, SINGLE).to_dict(), xp_points=[["0.5"]] * g.n)),
    "RatioModel alpha list True": lambda g: rr.RatioModel(**dict(
        vars(rr.fit_spectral(g, SINGLE)), alpha=[True] * g.n)),
    "RatioModel values_at_xp n + 1": lambda g: rr.RatioModel(**dict(
        vars(rr.fit_spectral(g, SINGLE)), values_at_xp=np.zeros(g.n + 1))),
    # arrays of points: every entry a finite number, judged by dtype or by entry type
    "SampleSet points [True, '0.5']": lambda g: rr.SampleSet([True, "0.5"], "p"),
    "SampleSet points bool array": lambda g: rr.SampleSet(np.array([True, False]), "p"),
    "SampleSet points str array": lambda g: rr.SampleSet(np.array(["0.5"]), "p"),
    "SampleSet points ragged": lambda g: rr.SampleSet([[0.0], [1.0, 2.0]], "p"),
    "SampleSet points 10**400": lambda g: rr.SampleSet([10**400], "p"),
    "SampleSet points 3-d": lambda g: rr.SampleSet(np.zeros((2, 2, 2)), "p"),
    "GramSystem f_bar '0.5'": lambda g: dataclasses.replace(g, f_bar=["0.5"] * g.n),
    "evaluate_batch [[True]]": lambda g: rr.evaluate_batch(
        rr.fit_spectral(g, SINGLE), [[True]]),
    "evaluate_batch '0.5'": lambda g: rr.evaluate_batch(rr.fit_spectral(g, SINGLE), "0.5"),
    "christoffel x True": lambda g: rr.christoffel(g, 0.1, True),
    "capacity_profile probes ['1']": lambda g: rr.capacity_profile(g, [0.1], ["1"]),
    "true_beta x '0.5'": lambda g: rr.true_beta("0.5", 3.0),
    "true_beta x True": lambda g: rr.true_beta(True, 3.0),
    "filter_value t '0.5'": lambda g: rr.filter_value(SINGLE, "0.5"),
    "filter_value t nan": lambda g: rr.filter_value(SINGLE, NAN),
    "residual_value t [True]": lambda g: rr.residual_value(SINGLE, [True]),
    "fit_log_slope ['1', '2', '4']": lambda g: rr.fit_log_slope(
        ["1", "2", "4"], [True, 0.5, 0.25]),
    "fit_log_slope errors True": lambda g: rr.fit_log_slope([1, 2, 4], [True, 0.5, 0.25]),
    "choose_from_values [['1'], [True]]": lambda g: choose_from_values([["1"], [True]]),
    "choose_from_values ragged": lambda g: choose_from_values([[1.0], [1.0, 2.0]]),
    "run_study probe_grid ['1']": lambda g: rr.run_study(rr.SimConfig(), probe_grid=["1"]),
    # empty inputs
    "run_study probe_grid []": lambda g: rr.run_study(rr.SimConfig(), probe_grid=[]),
    "choose_from_values [[], []]": lambda g: choose_from_values([[], []]),
    "nearest_rank_quantile []": lambda g: nearest_rank_quantile([], 0.5),
    "RegScheme lam '0.5'": lambda g: rr.RegScheme("iterated_lavrentiev", "0.5"),
    "RegScheme iterations True": lambda g: rr.RegScheme("iterated_lavrentiev", 0.5, True),
    "filter rows count 1.5": lambda g: iterated_filter_rows([0.5], 1.5, [0.0]),
    "check t_max nan": lambda g: rr.check_scheme_constants(SINGLE, NAN),
    "check grid_size 2.5": lambda g: rr.check_scheme_constants(SINGLE, 2.0, 2.5),
    "check qualification nan": lambda g: rr.check_scheme_constants(
        SINGLE, 2.0, qualification=NAN),
    # means and variances
    "true_beta mu_q nan": lambda g: rr.true_beta(0.0, NAN),
    "true_beta var_q True": lambda g: rr.true_beta(0.0, 2.0, var_q=True),
    "sample_normal mu inf": lambda g: rr.sample_normal(INF, 1.0, 5, 0),
    "sample_normal count 2.5": lambda g: rr.sample_normal(0.0, 1.0, 2.5, 0),
    "SimConfig mu_p nan": lambda g: rr.SimConfig(mu_p=NAN),
    "SimConfig mu_q_list nan": lambda g: rr.SimConfig(mu_q_list=(2.0, NAN)),
    "SimConfig var_p '5'": lambda g: rr.SimConfig(var_p="5"),
    "run_rate_study mu_q inf": lambda g: rr.run_rate_study([4, 8], **RATE, mu_q=INF),
    "run_rate_study iterations 1.5": lambda g: rr.run_rate_study(
        [4, 8], **dict(RATE, iterations=1.5)),
    "run_rate_study replications True": lambda g: rr.run_rate_study(
        [4, 8], **dict(RATE, replications=True)),
    # an iteration count above MAX_ITERATIONS
    "RegScheme iterations 1001": lambda g: rr.RegScheme("iterated_lavrentiev", 0.5, 1001),
    "fit iterations 1001": lambda g: rr.fit_iterated_lavrentiev(g, 0.5, 1001),
    "ladder count 1001": lambda g: rr.fit_iterated_lavrentiev_ladder(g, [0.5], 1001),
    "SimConfig k_list 1001": lambda g: rr.SimConfig(k_list=(1, 1001)),
    "run_rate_study iterations 1001": lambda g: rr.run_rate_study(
        [4, 8], **dict(RATE, iterations=1001)),
    # seeds: whole numbers, non-negative where they reach PCG64 directly
    "SimConfig seed 1.5": lambda g: rr.SimConfig(seed=1.5),
    "SimConfig seed True": lambda g: rr.SimConfig(seed=True),
    "run_rate_study seed 2.5": lambda g: rr.run_rate_study([4, 8], **dict(RATE, seed=2.5)),
    "sample_normal seed 1.5": lambda g: rr.sample_normal(0.0, 1.0, 5, 1.5),
    "sample_normal seed -1": lambda g: rr.sample_normal(0.0, 1.0, 5, -1),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_malformed_number_raises_input_error(small_pair, call):
    with pytest.raises(rr.InputError):
        call(small_pair[2])


def test_checkers_normalize_what_they_accept():
    assert whole_number(3.0, "k") == 3 and type(whole_number(np.int64(3), "k")) is int
    assert whole_number(0, "seed", minimum=0) == 0
    assert whole_number(-2**70, "seed", minimum=None) == -2**70
    config = rr.SimConfig(seed=-1.0)  # masked to 64 bits in the seed chain
    assert config.seed == -1 and type(config.seed) is int
    assert type(positive_real(np.float32(0.5), "lam")) is float
    assert finite_real(fractions.Fraction(-1, 4), "mu") == -0.25
    assert positive_real(2**70, "t_max") == 2.0**70
    for bad in (10**400, 2.5, -1, "3", None, [3]):
        with pytest.raises(rr.InputError, match="k"):
            whole_number(bad, "k")
    assert iteration_count(float(MAX_ITERATIONS), "k") == MAX_ITERATIONS
    with pytest.raises(rr.InputError, match=f"at least 1 and at most {MAX_ITERATIONS}"):
        iteration_count(MAX_ITERATIONS + 1, "k")


def test_arrays_given_as_lists_or_scalars_are_taken(small_pair):
    """A model built from Python lists, and a scalar point, are valid input."""
    model = rr.fit_spectral(small_pair[2], SINGLE)
    fields = {key: value.tolist() if isinstance(value, np.ndarray) else value
              for key, value in vars(model).items()}
    rebuilt = rr.RatioModel(**fields)
    assert np.array_equal(rebuilt.alpha, model.alpha)
    assert np.array_equal(rebuilt.xq_points, model.xq_points)
    assert np.array_equal(rr.evaluate_batch(rebuilt, 0.5), rr.evaluate_batch(model, [[0.5]]))
    assert rr.SampleSet((0.5, np.float32(1.5)), "p").points.tolist() == [[0.5], [1.5]]


SMALL_STUDY = ["--n", "4", "--m", "4", "--mu-q-list", "3", "--k-list", "1",
               "--replications", "1", "--grid-size", "3", "--threads", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", *SMALL_STUDY, "--mu-p", "nan"],
    ["simulate", *SMALL_STUDY, "--mu-q-list", "nan"],
    ["check-schemes", "--qualification", "nan"],
    ["rates", "--n-list", "4,8", "--replications", "1", "--mu-q", "inf"],
], ids=["simulate --mu-p nan", "simulate --mu-q-list nan",
        "check-schemes --qualification nan", "rates --mu-q inf"])
def test_cli_rejects_non_finite_values(tmp_path, subprocess_env, argv):
    run = subprocess.run([sys.executable, "-m", "ratioreg", *argv], cwd=tmp_path,
                         env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stdout + run.stderr
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert json.loads(lines[0])["error"] == "validation"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, config", [
    (["fit", "--xp", "xp.csv", "--xq", "xq.csv", "--lam", "0.3", "--out", "out",
      "--iterations", "1" + "0" * 30], None),
    (["rates", "--n-list", "4,8", "--replications", "1", "--iterations", "1" + "0" * 30], None),
    (["check-schemes", "--iterations", "1" + "0" * 20, "--out", "out"], None),
    (["check-schemes", "--out", "out", "--config", "config.json"], {"iterations": 1001}),
    (["check-schemes", "--kind", "spectral_cutoff", "--iterations", "1001", "--out", "out"],
     None),
    (["simulate", *SMALL_STUDY, "--k-list", "1,1001"], None),
], ids=["fit", "rates", "check-schemes", "check-schemes config", "check-schemes cutoff",
        "simulate --k-list"])
def test_cli_rejects_iteration_counts_above_the_maximum(tmp_path, subprocess_env, argv,
                                                        config):
    """A count above MAX_ITERATIONS exits 2 with one JSON line at once, not after
    looping k times or in an OverflowError or MemoryError traceback."""
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 6, 1, "p"), tmp_path / "xp.csv")
    rr.save_samples_csv(rr.sample_normal(3.0, 0.5, 5, 2, "q"), tmp_path / "xq.csv")
    (tmp_path / "config.json").write_text(json.dumps(config))
    run = subprocess.run([sys.executable, "-m", "ratioreg", *argv], cwd=tmp_path,
                         env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stdout + run.stderr
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "validation" and f"at most {MAX_ITERATIONS}" in error["message"]
    assert not (tmp_path / "out").exists() and not (tmp_path / "report.json").exists()


def test_overflowing_ladder_fails_its_cell_without_warnings(tmp_path, subprocess_env):
    """A ladder whose filters overflow at lam = 1e-318 records the cell as a
    NumericalError and prints no numpy RuntimeWarning."""
    run = subprocess.run([sys.executable, "-m", "ratioreg", "simulate", "--n", "10",
                          "--m", "10", "--mu-q-list", "3", "--k-list", "1",
                          "--replications", "1", "--lambda-0", "1e-300", "--rho", "1e-9",
                          "--grid-size", "2"], cwd=tmp_path, env=subprocess_env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    (cell,) = json.loads((tmp_path / "report.json").read_text())["cells"]
    assert cell["error"].startswith("NumericalError")


def test_overflowing_capacity_exits_3_without_warnings(tmp_path, subprocess_env):
    """Strengths near 1e-300 overflow 1/lam in the leverage: exit 3 with one JSON
    line, no numpy RuntimeWarning and no profile CSV, not a -inf n_inf."""
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 300, seed=0), tmp_path / "xp.csv")
    run = subprocess.run([sys.executable, "-m", "ratioreg", "capacity", "--xp", "xp.csv",
                          "--lambda-min", "1e-300", "--lambda-max", "1e-299",
                          "--out", "profile.csv"], cwd=tmp_path, env=subprocess_env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stdout + run.stderr
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert json.loads(lines[0])["error"] == "numerical"
    assert not (tmp_path / "profile.csv").exists()


def test_capacity_on_a_wide_sample_exits_2(tmp_path, subprocess_env):
    """On 40 columns the default probe grid would take 2^40 points: exit 2 with one JSON
    line naming d, not a traceback from ``np.meshgrid``."""
    np.savetxt(tmp_path / "xp.csv", np.arange(200.0).reshape(5, 40), delimiter=",")
    run = subprocess.run([sys.executable, "-m", "ratioreg", "capacity", "--xp", "xp.csv",
                          "--out", "profile.csv"], cwd=tmp_path, env=subprocess_env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stdout + run.stderr
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "validation" and "d = 40" in error["message"]
    assert not (tmp_path / "profile.csv").exists()


FIT = ["fit", "--xp", "xp.csv", "--xq", "xq.csv", "--out", "out"]
# Inputs whose arithmetic overflows on the way to a checked error or to a right
# value: (argv, exit code, text that stdout holds).
OVERFLOWS = {
    "check-schemes --t-max 1e-320": (["check-schemes", "--t-max", "1e-320"], 2, ""),
    "check-schemes --lam 5e-324": (["check-schemes", "--lam", "5e-324"], 2, ""),
    "check-schemes --lam 1e-310": (["check-schemes", "--lam", "1e-310"], 2, ""),
    "check-schemes lam + t_max 2e308": (["check-schemes", "--lam", "1e308", "--t-max", "1e308",
                                         "--iterations", "1", "--qualification", "0"], 2, ""),
    "fit --offset 1.7e308": ([*FIT, "--lam", "0.3", "--offset", "1.7e308"], 2, ""),
    "fit --lam 5e-324": ([*FIT, "--lam", "5e-324"], 3, ""),
    "simulate --offset 1e308": (["simulate", *SMALL_STUDY, "--offset", "1e308"], 0, ""),
    "simulate --mu-q-list 1e308": (["simulate", *SMALL_STUDY, "--mu-q-list", "1e308"], 0,
                                   "1e+308  0."),
    "simulate --var-p 1.7e308": (["simulate", *SMALL_STUDY, "--var-p", "1.7e308"], 2, ""),
    "rates --probe-x 1.7e308": (["rates", "--n-list", "4,8", "--replications", "1",
                                 "--probe-x", "1.7e308"], 2, ""),
    "capacity on one point at 1e308": (["capacity", "--xp", "far.csv", "--out", "out"], 0,
                                       "lambda_star"),
    "capacity on points at -1e308 and 1e308": (["capacity", "--xp", "wide.csv", "--out",
                                                "out"], 2, ""),
    "evaluate alpha and mu_coeff 1.7e308": (["evaluate", "--model", "huge.json", "--points",
                                             "xp.csv", "--out", "out"], 3, ""),
}


@pytest.mark.parametrize("argv, code, shown", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflow_exits_cleanly_without_warnings(tmp_path, monkeypatch, capsys,
                                                 argv, code, shown):
    """In process, where a numpy warning is an error: exit 0 with nothing on stderr,
    or exit 2 or 3 with one JSON line and no output file."""
    monkeypatch.chdir(tmp_path)
    xp, xq = rr.sample_normal(2.0, 5.0, 6, 1, "p"), rr.sample_normal(3.0, 0.5, 5, 2, "q")
    rr.save_samples_csv(xp, "xp.csv")
    rr.save_samples_csv(xq, "xq.csv")
    gram = rr.assemble_gram(rr.KernelSpec(), xp, xq)
    huge = dict(rr.fit_spectral(gram, SINGLE).to_dict(), alpha=[1.7e308] * gram.n,
                mu_coeff=1.7e308)
    (tmp_path / "huge.json").write_text(json.dumps(huge))
    (tmp_path / "far.csv").write_text("1e308\n")
    (tmp_path / "wide.csv").write_text("-1e308\n1e308\n")
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert shown in out
    if code == 0:
        assert err == ""
    else:
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {2: "validation", 3: "numerical"}[code]
        assert not (tmp_path / "out").exists()


def test_evaluate_rejects_model_entries_that_are_not_numbers(tmp_path, subprocess_env,
                                                            small_pair):
    """A model whose alpha holds true and "0.5" exits 2, not evaluated as 1.0 and 0.5."""
    data = rr.fit_spectral(small_pair[2], SINGLE).to_dict()
    data["alpha"][:2] = [True, "0.5"]
    (tmp_path / "model.json").write_text(json.dumps(data))
    (tmp_path / "points.csv").write_text("0.0\n1.0\n")
    run = subprocess.run([sys.executable, "-m", "ratioreg", "evaluate", "--model", "model.json",
                          "--points", "points.csv", "--out", "values.csv"], cwd=tmp_path,
                         env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stdout + run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1, run.stderr
    assert json.loads(lines[0])["error"] == "validation"
    assert not (tmp_path / "values.csv").exists()


def test_evaluate_refuses_a_model_without_coordinates(tmp_path, monkeypatch, capsys,
                                                     small_pair):
    """A model file whose points are ``[[]]`` (d = 0) exits 2 with one JSON line that
    names the model, not the points."""
    monkeypatch.chdir(tmp_path)
    data = dict(rr.fit_spectral(small_pair[2], SINGLE).to_dict(), xp_points=[[]],
                xq_points=[[]], alpha=[0.0], values_at_xp=[0.0])
    (tmp_path / "model.json").write_text(json.dumps(data))
    (tmp_path / "points.csv").write_text("0.0\n1.0\n")
    assert main(["evaluate", "--model", "model.json", "--points", "points.csv",
                 "--out", "values.csv"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "validation" and "xp_points" in error["message"]
    assert not (tmp_path / "values.csv").exists()
