import csv
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ratioreg as rr
from ratioreg import capacity as capacity_mod
from ratioreg.cli import _COMMANDS, build_parser, main


@pytest.fixture()
def sample_files(tmp_path):
    xp = rr.sample_normal(2.0, 5.0, 30, 11, "p")
    xq = rr.sample_normal(3.0, 0.5, 25, 12, "q")
    xp_path = tmp_path / "xp.csv"
    xq_path = tmp_path / "xq.csv"
    rr.save_samples_csv(xp, xp_path)
    rr.save_samples_csv(xq, xq_path)
    return xp, xq, str(xp_path), str(xq_path)


def read_stderr_error(capsys):
    err = capsys.readouterr().err
    return json.loads(err.strip().splitlines()[-1])


# -- fit ---------------------------------------------------------------------

def test_fit_writes_loadable_model(tmp_path, sample_files, capsys):
    xp, xq, xp_path, xq_path = sample_files
    out = str(tmp_path / "model.json")
    code = main(["fit", "--xp", xp_path, "--xq", xq_path,
                 "--lam", "0.3", "--iterations", "2", "--out", out])
    assert code == 0
    assert "expansion coefficients" in capsys.readouterr().out
    model = rr.load_model(out)
    assert model.alpha.shape == (30,)
    assert model.scheme.lam == 0.3 and model.scheme.iterations == 2
    direct = rr.fit_iterated_lavrentiev(rr.assemble_gram(model.kernel, xp, xq), 0.3, 2)
    # CSV round-trips floats via repr, so the refit is bit-identical
    assert np.array_equal(model.alpha, direct.alpha)


def test_fit_numerical_breakdown_exits_3(tmp_path, capsys):
    """At lam = 1e-300 the shift is lost in K, of numerical rank about 40 at n = 400."""
    paths = [str(tmp_path / name) for name in ("xp.csv", "xq.csv")]
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 400, 11, "p"), paths[0])
    rr.save_samples_csv(rr.sample_normal(3.0, 0.5, 400, 12, "q"), paths[1])
    code = main(["fit", "--xp", paths[0], "--xq", paths[1], "--lam", "1e-300",
                 "--out", str(tmp_path / "m.json")])
    assert code == 3
    payload = read_stderr_error(capsys)
    assert payload["error"] == "numerical"
    assert "lambda=1e-300" in payload["message"]
    assert not (tmp_path / "m.json").exists()


def test_failing_fit_peaks_no_higher_than_a_successful_one(tmp_path, subprocess_env):
    """At n = m = 3200 and lam = 1e-18 the refinement's correction does not shrink, and
    the fit forms no n x n array to report it: the process exits 3 with one JSON line
    and peaks (``os.wait4``) no higher than a fit at lam = 0.1 on the same samples."""
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 3200, 31, "p"), tmp_path / "xp.csv")
    rr.save_samples_csv(rr.sample_normal(3.0, 0.5, 3200, 32, "q"), tmp_path / "xq.csv")
    runs = {}
    for lam in ("0.1", "1e-18"):
        with open(tmp_path / f"{lam}.err", "w+") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "ratioreg", "fit", "--xp", "xp.csv", "--xq", "xq.csv",
                 "--lam", lam, "--iterations", "3", "--out", f"{lam}.json"],
                cwd=tmp_path, env=subprocess_env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            runs[lam] = child.returncode, usage.ru_maxrss, err.read().splitlines()
    assert runs["0.1"][0] == 0 and runs["1e-18"][0] == 3
    assert runs["1e-18"][1] <= runs["0.1"][1]
    (line,) = runs["1e-18"][2]
    payload = json.loads(line)
    assert payload["error"] == "numerical" and "lambda=1e-18" in payload["message"]
    assert not (tmp_path / "1e-18.json").exists()


def test_fit_requires_lam(sample_files, tmp_path, capsys):
    _, _, xp_path, xq_path = sample_files
    code = main(["fit", "--xp", xp_path, "--xq", xq_path,
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    payload = read_stderr_error(capsys)
    assert payload["error"] == "validation"
    assert "--lam" in payload["message"]


def test_fit_rejects_nonpositive_lam(sample_files, tmp_path, capsys):
    _, _, xp_path, xq_path = sample_files
    code = main(["fit", "--xp", xp_path, "--xq", xq_path, "--lam", "0",
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "--lam" in read_stderr_error(capsys)["message"]


def test_fit_rejects_infinite_lam(sample_files, tmp_path, capsys):
    _, _, xp_path, xq_path = sample_files
    code = main(["fit", "--xp", xp_path, "--xq", xq_path, "--lam", "inf",
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "--lam" in json.loads(err)["message"]


def test_fit_rejects_empty_sample(tmp_path, sample_files, capsys):
    _, _, _, xq_path = sample_files
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["fit", "--xp", str(empty), "--xq", xq_path,
                 "--lam", "0.3", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert read_stderr_error(capsys)["error"] == "validation"


def test_fit_missing_file_is_io_error(tmp_path, capsys):
    code = main(["fit", "--xp", str(tmp_path / "nope.csv"),
                 "--xq", str(tmp_path / "nope2.csv"),
                 "--lam", "0.3", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert read_stderr_error(capsys)["error"] == "io"


# -- evaluate ----------------------------------------------------------------

@pytest.fixture()
def fitted_model(tmp_path, sample_files):
    _, _, xp_path, xq_path = sample_files
    out = str(tmp_path / "model.json")
    assert main(["fit", "--xp", xp_path, "--xq", xq_path,
                 "--lam", "0.2", "--iterations", "3", "--out", out]) == 0
    return out


def test_evaluate_csv(tmp_path, fitted_model, capsys):
    points = np.linspace(-2.0, 6.0, 9).reshape(-1, 1)
    pts_path = tmp_path / "probe.csv"
    rr.save_samples_csv(rr.SampleSet(points, "p"), pts_path)
    out = tmp_path / "values.csv"
    code = main(["evaluate", "--model", fitted_model, "--points", str(pts_path),
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x0", "value"]
    got = np.array([float(r[1]) for r in rows[1:]])
    expected = rr.evaluate_batch(rr.load_model(fitted_model), points)
    assert np.array_equal(got, expected)


def _evaluate_many_points(tmp_path, capsys, fmt: str):
    """``evaluate --format fmt`` of 50,000 points on an n = m = 20 model: the points,
    the model path, the output path and the peak of the command under tracemalloc."""
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("xp", "xq", "points")}
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 20, 11, "p"), paths["xp"])
    rr.save_samples_csv(rr.sample_normal(3.0, 0.5, 20, 12, "q"), paths["xq"])
    points = np.linspace(-2.0, 6.0, 50_000).reshape(-1, 1)
    rr.save_samples_csv(rr.SampleSet(points, "p"), paths["points"])
    model, out = str(tmp_path / "model.json"), tmp_path / f"values.{fmt}"
    assert main(["fit", "--xp", paths["xp"], "--xq", paths["xq"], "--lam", "0.2",
                 "--out", model]) == 0
    tracemalloc.start()
    try:
        code = main(["evaluate", "--model", model, "--points", paths["points"],
                     "--out", str(out), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    return points, model, out, peak


def test_evaluate_streams_a_large_csv(tmp_path, capsys):
    """50,000 points on an n = m = 20 model peak below 6 MB (120 B a point) under
    tracemalloc: the points are read and the rows written a record or a chunk at a
    time, where lists of records and of row views took 16.4 MB.  The rows keep the
    bits of ``evaluate_batch``."""
    points, model, out, peak = _evaluate_many_points(tmp_path, capsys, "csv")
    assert peak < 6e6
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x0", "value"] and len(rows) == len(points) + 1
    expected = rr.evaluate_batch(rr.load_model(model), points)
    assert [float(r[0]) for r in rows[1:]] == points[:, 0].tolist()
    assert np.array_equal([float(r[1]) for r in rows[1:]], expected)


def test_evaluate_streams_a_large_json(tmp_path, capsys):
    """The same 50,000 points written as JSON peak below 6 MB too, where the lists of
    every point and value took 7.3 MB."""
    points, model, out, peak = _evaluate_many_points(tmp_path, capsys, "json")
    assert peak < 6e6
    payload = json.loads(out.read_text())
    assert payload["points"] == points.tolist()
    assert payload["values"] == rr.evaluate_batch(rr.load_model(model), points).tolist()


def test_evaluate_json(tmp_path, fitted_model, capsys):
    points = np.array([[0.0], [2.0], [4.0]])
    pts_path = tmp_path / "probe.csv"
    rr.save_samples_csv(rr.SampleSet(points, "p"), pts_path)
    out = tmp_path / "values.json"
    code = main(["evaluate", "--model", fitted_model, "--points", str(pts_path),
                 "--out", str(out), "--format", "json"])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["points"] == points.tolist()
    expected = rr.evaluate_batch(rr.load_model(fitted_model), points)
    assert payload["values"] == expected.tolist()


def test_evaluate_rejects_unknown_format(tmp_path, fitted_model, capsys):
    code = main(["evaluate", "--model", fitted_model, "--points", fitted_model,
                 "--out", str(tmp_path / "x"), "--format", "xml"])
    assert code == 2
    assert "--format" in read_stderr_error(capsys)["message"]


# -- simulate ----------------------------------------------------------------

SIM_FILES = ("report.json", "replications.csv", "box_stats.csv")


def run_simulate(out_dir, *extra):
    return main(["simulate", "--n", "20", "--m", "20", "--replications", "1",
                 "--seed", "9", "--out-dir", str(out_dir), *extra])


def test_simulate_writes_three_files(tmp_path, capsys):
    assert run_simulate(tmp_path) == 0
    out = capsys.readouterr().out
    assert "study complete: 15 cells, 0 failures" in out
    assert "<=" in out or ">" in out
    for name in SIM_FILES:
        assert (tmp_path / name).exists()
    with open(tmp_path / "replications.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 1 + 15  # 3 target means x 5 iteration counts x 1 rep
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["seed"] == 9
    assert report["failures"] == 0


def test_simulate_byte_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_simulate(a, "--threads", "1") == 0
    assert run_simulate(b, "--threads", "1") == 0
    assert run_simulate(c, "--threads", "4") == 0
    capsys.readouterr()
    for name in SIM_FILES:
        blob = (a / name).read_bytes()
        assert (b / name).read_bytes() == blob
        assert (c / name).read_bytes() == blob


@pytest.mark.parametrize("flags, config, code", [
    (["--threads", "1"], None, 0),
    (["--threads", "4"], None, 0),
    (["--threads", "0"], None, 2),
    (["--threads", "-2"], None, 2),
    (["--threads", "1.5"], None, 2),
    (["--threads", "true"], None, 2),
    ([], {"threads": 2.0}, 2),
], ids=["1", "4", "0", "-2", "1.5", "true", "config 2.0"])
def test_simulate_threads_is_checked_then_ignored(tmp_path, capsys, flags, config, code):
    """A whole --threads >= 1 gives the bytes of a run without it; any other
    value exits 2 with one JSON line and writes nothing."""
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "config.json")]
    assert run_simulate(tmp_path / "plain") == 0
    capsys.readouterr()
    assert run_simulate(tmp_path / "flagged", *flags) == code
    if code == 0:
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "flagged" / "report.json").read_bytes()
                == (tmp_path / "plain" / "report.json").read_bytes())
    else:
        assert read_single_error_line(capsys)["error"] == "validation"
        assert not (tmp_path / "flagged").exists()


def test_simulate_custom_lists(tmp_path, capsys):
    code = main(["simulate", "--n", "20", "--m", "20", "--mu-q-list", "3",
                 "--k-list", "1,5", "--replications", "2", "--seed", "4",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["cells"]) == 4
    assert report["config"]["k_list"] == [1, 5]
    assert report["config"]["mu_q_list"] == [3.0]


def test_simulate_refuses_repeated_list_entries(tmp_path, capsys):
    code = main(["simulate", "--n", "5", "--m", "5", "--replications", "2",
                 "--mu-q-list", "3,3", "--k-list", "1,1", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and "no repeated entry" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_median_table_separates_a_long_target_mean(tmp_path, capsys):
    code = main(["simulate", "--n", "5", "--m", "5", "--replications", "2",
                 "--mu-q-list", "1e6", "--k-list", "1,2", "--out-dir", str(tmp_path)])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("1000000.0 ")
    mu_q, *medians = row.replace("<=", "").replace(">", "").split()
    assert float(mu_q) == 1e6 and len(medians) == 2


def test_simulate_rejects_bad_k_list(tmp_path, capsys):
    code = main(["simulate", "--k-list", "1,two", "--out-dir", str(tmp_path)])
    assert code == 2
    assert read_stderr_error(capsys)["error"] == "validation"


# -- rates -------------------------------------------------------------------

def test_rates_small_sweep(tmp_path, capsys):
    out = tmp_path / "rates.json"
    code = main(["rates", "--n-list", "30,60", "--replications", "2",
                 "--iterations", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pointwise-error slope:" in stdout
    assert "rms-error slope:" in stdout
    payload = json.loads(out.read_text())
    assert payload["n_list"] == [30, 60]
    assert payload["lambdas"] == [rr.lambda_mn(30, 30, 1.0, 0.5),
                                  rr.lambda_mn(60, 60, 1.0, 0.5)]


def test_rates_single_n_reports_insufficient(capsys):
    code = main(["rates", "--n-list", "40", "--replications", "1",
                 "--iterations", "2"])
    assert code == 0
    assert "insufficient points" in capsys.readouterr().out


def test_rates_rejects_unordered_n_list(capsys):
    code = main(["rates", "--n-list", "100,50", "--replications", "1"])
    assert code == 2
    assert read_stderr_error(capsys)["error"] == "validation"


# -- capacity ----------------------------------------------------------------

def test_capacity_profile_csv(tmp_path, sample_files, capsys):
    _, _, xp_path, _ = sample_files
    out = tmp_path / "profile.csv"
    code = main(["capacity", "--xp", xp_path, "--num-lambdas", "12",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["csv"] == str(out)
    assert summary["lambda_star"] > 0.0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["lambda", "n_eff", "n_inf"]
    assert len(rows) == 13
    lams = [float(r[0]) for r in rows[1:]]
    n_eff = [float(r[1]) for r in rows[1:]]
    n_inf = [float(r[2]) for r in rows[1:]]
    assert lams == sorted(lams, reverse=True)
    assert n_eff == sorted(n_eff)  # dimension grows as the strength shrinks
    assert all(s >= e for s, e in zip(n_inf, n_eff))


def test_capacity_reports_unbracketed_balance_point(tmp_path, sample_files,
                                                    capsys, monkeypatch):
    _, _, xp_path, _ = sample_files

    def refuse(gram):
        raise rr.InputError("bracket does not straddle the balance point")

    monkeypatch.setattr(capacity_mod, "find_lambda_star", refuse)
    out = tmp_path / "profile.csv"
    code = main(["capacity", "--xp", xp_path, "--num-lambdas", "4",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["lambda_star"] is None
    assert "warning" in summary


def test_capacity_refuses_a_negative_sup_capacity(tmp_path, capsys):
    """Far below the pivot truncation level the computed n_inf, a supremum of
    non-negative leverages, comes out negative: ``capacity`` exits 3, names the
    largest such strength and writes no profile."""
    points = 2.0 + np.sqrt(5.0) * np.random.default_rng(0).standard_normal(300)
    rr.save_samples_csv(rr.SampleSet(points, "p"), tmp_path / "xp.csv")
    out = tmp_path / "p.csv"
    code = main(["capacity", "--xp", str(tmp_path / "xp.csv"), "--lambda-min", "1e-21",
                 "--lambda-max", "1e-20", "--num-lambdas", "3", "--out", str(out)])
    assert code == 3
    payload = read_stderr_error(capsys)
    assert payload["error"] == "numerical" and "lambda=1e-20" in payload["message"]
    assert not out.exists()


def test_capacity_validates_bounds(tmp_path, sample_files, capsys):
    _, _, xp_path, _ = sample_files
    code = main(["capacity", "--xp", xp_path, "--lambda-min", "2.0",
                 "--lambda-max", "1.0", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "--lambda-min" in read_stderr_error(capsys)["message"]


@pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_capacity_rejects_non_finite_bounds(tmp_path, sample_files, capsys, flag, value):
    _, _, xp_path, _ = sample_files
    code = main(["capacity", "--xp", xp_path, flag, value,
                 "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation" and flag in payload["message"]


def test_nul_in_path_flag_is_validation_error(tmp_path, capsys):
    for argv in (["capacity", "--xp", "a\x00b", "--out", str(tmp_path / "p.csv")],
                 ["capacity", "--config", "c\x00.json"],
                 ["fit", "--xp", "a", "--xq", "b", "--lam", "0.1", "--out", "m\x00.json"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "validation" and "NUL" in payload["message"]


def test_non_numeric_field_ahead_of_bad_utf8_is_reported(tmp_path, capsys):
    """A non-numeric field a read buffer ahead of a bad UTF-8 byte is the fault reported,
    as one JSON line with exit 2."""
    xp = tmp_path / "xp.csv"
    xp.write_bytes(b"1.0\noops\n" + b"1.0\n" * 4096 + b"\xff\n")
    assert main(["capacity", "--xp", str(xp), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation" and "non-numeric value" in payload["message"]


# -- check-schemes -----------------------------------------------------------

def test_check_schemes_default_passes(capsys):
    assert main(["check-schemes"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 4
    assert "VIOLATED" not in out
    assert "all_satisfied: true" in out


def test_check_schemes_flags_false_claim(capsys):
    code = main(["check-schemes", "--kind", "lavrentiev", "--iterations", "1",
                 "--qualification", "2"])
    assert code == 0  # diagnostics report, they do not fail the process
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "all_satisfied: false" in out


@pytest.mark.parametrize("t_max", ["1e200", "1e308"])
def test_check_schemes_huge_t_max(t_max, capfd):
    assert main(["check-schemes", "--t-max", t_max]) == 0
    captured = capfd.readouterr()
    assert "VIOLATED" not in captured.out
    assert "all_satisfied: true" in captured.out
    assert captured.err == ""


def _strict_json(text: str):
    """json.loads that rejects the Infinity and NaN extensions, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_check_schemes_json_report(tmp_path, capsys):
    """Infinite margins (cutoff: +inf; a false claim at t_max = 1e308: -inf) are null."""
    out = tmp_path / "checks.json"
    assert main(["check-schemes", "--kind", "spectral_cutoff", "--lam", "0.2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = _strict_json(out.read_text())
    assert payload["all_satisfied"] is True
    assert len(payload["checks"]) == 4
    assert payload["qualification"] is None  # unbounded order serializes as null
    qualification = payload["checks"][-1]
    assert qualification["margin"] is None and qualification["satisfied"] is True

    assert main(["check-schemes", "--t-max", "1e308", "--qualification", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = _strict_json(out.read_text())
    assert payload["all_satisfied"] is False
    qualification = payload["checks"][-1]
    assert qualification["margin"] is None and qualification["satisfied"] is False
    assert all(isinstance(c["margin"], float) for c in payload["checks"][:-1])


# -- config files and shared plumbing ----------------------------------------

def test_config_file_supplies_flags(tmp_path, sample_files, capsys):
    _, _, xp_path, xq_path = sample_files
    out = str(tmp_path / "model.json")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(
        {"xp": xp_path, "xq": xq_path, "lam": 0.3, "iterations": 2, "out": out}))
    assert main(["fit", "--config", str(config)]) == 0
    capsys.readouterr()
    assert rr.load_model(out).scheme.lam == 0.3


def test_explicit_flag_overrides_config(tmp_path, sample_files, capsys):
    _, _, xp_path, xq_path = sample_files
    out = str(tmp_path / "model.json")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(
        {"xp": xp_path, "xq": xq_path, "lam": 0.3, "out": out}))
    assert main(["fit", "--config", str(config), "--lam", "0.5"]) == 0
    capsys.readouterr()
    assert rr.load_model(out).scheme.lam == 0.5


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"lam": 0.3, "bogus_knob": 1}))
    code = main(["fit", "--config", str(config)])
    assert code == 2
    assert "bogus_knob" in read_stderr_error(capsys)["message"]


def read_single_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return json.loads(err)


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": "abc"}))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    assert "--n" in payload["message"] and "int value: 'abc'" in payload["message"]


@pytest.mark.parametrize("key, value, kind", [("n", 4.7, "integer"), ("n", 4.0, "integer"),
                                             ("n", True, "integer"), ("rho", True, "number")])
def test_config_number_flag_rejects_truncation_and_bool(tmp_path, capsys, key, value, kind):
    """A config value gets the message of the same flag on the command line."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": 20, "m": 20, "replications": 1, key: value}))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    convert = {"integer": "int", "number": "float"}[kind]
    assert payload["message"].endswith(
        f"argument --{key}: invalid {convert} value: '{json.dumps(value)}'")
    assert not (tmp_path / "report.json").exists()


def test_config_integer_past_float_range_rejected(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"lam": 10**400}))
    assert main(["check-schemes", "--config", str(config)]) == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and "--lam" in payload["message"]


def test_config_file_holding_a_list_rejected(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([{"n": 20}]))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    assert "JSON object" in payload["message"]


def test_evaluate_rejects_model_without_scheme(tmp_path, fitted_model, capsys):
    with open(fitted_model) as handle:
        data = json.load(handle)
    del data["scheme"]
    broken = tmp_path / "no_scheme.json"
    broken.write_text(json.dumps(data))
    points = tmp_path / "points.csv"
    points.write_text("0.0\n1.0\n")
    code = main(["evaluate", "--model", str(broken), "--points", str(points),
                 "--out", str(tmp_path / "values.csv")])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    assert "'scheme'" in payload["message"]


@pytest.mark.parametrize("flag, value", [("--offset", "inf"), ("--offset", "nan"),
                                         ("--bandwidth", "inf"), ("--bandwidth", "nan")])
def test_kernel_flags_must_be_finite(tmp_path, sample_files, capsys, flag, value):
    _, _, xp_path, xq_path = sample_files
    runs = (["fit", "--xp", xp_path, "--xq", xq_path, "--lam", "0.3",
             "--out", str(tmp_path / "m.json")],
            ["capacity", "--xp", xp_path, "--out", str(tmp_path / "p.csv")])
    for argv in runs:
        assert main([*argv, flag, value]) == 2
        payload = read_single_error_line(capsys)
        assert payload["error"] == "validation" and flag[2:] in payload["message"]


NOT_UTF8 = b"\xff\xfe0.5\n"


@pytest.mark.parametrize("content", [b"{not json", NOT_UTF8])
def test_undecodable_model_file_rejected(tmp_path, sample_files, capsys, content):
    _, _, xp_path, _ = sample_files
    model = tmp_path / "model.json"
    model.write_bytes(content)
    code = main(["evaluate", "--model", str(model), "--points", xp_path,
                 "--out", str(tmp_path / "values.csv")])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and "model file" in payload["message"]


def test_undecodable_config_file_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(NOT_UTF8)
    assert main(["check-schemes", "--config", str(config)]) == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and "config file" in payload["message"]


def test_undecodable_sample_csv_rejected(tmp_path, fitted_model, sample_files, capsys):
    _, _, _, xq_path = sample_files
    binary = tmp_path / "binary.csv"
    binary.write_bytes(NOT_UTF8)
    runs = (["evaluate", "--model", fitted_model, "--points", str(binary),
             "--out", str(tmp_path / "values.csv")],
            ["fit", "--xp", str(binary), "--xq", xq_path, "--lam", "0.3",
             "--out", str(tmp_path / "m.json")],
            ["capacity", "--xp", str(binary), "--out", str(tmp_path / "p.csv")])
    for argv in runs:
        assert main(argv) == 2
        payload = read_single_error_line(capsys)
        assert payload["error"] == "validation" and "UTF-8" in payload["message"]


@pytest.mark.parametrize("key, value", [("xp", 3), ("out", ["a.json"]), ("xq", "a\u0000b"),
                                        ("kernel_family", None)])
def test_config_text_flag_needs_a_string(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lam": 0.3, key: value}))
    assert main(["fit", "--config", str(config)]) == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and f"'{key}'" in payload["message"]


def test_config_list_flag_takes_an_array(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 20, "m": 20, "replications": 1,
                                  "k_list": [1, 5], "mu_q_list": [3]}))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["k_list"] == [1, 5]


@pytest.mark.parametrize("key, value", [("k_list", [2.7]), ("k_list", [True]),
                                        ("mu_q_list", [False])])
def test_config_array_rejects_truncation_and_bool(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 20, "m": 20, "replications": 1, key: value}))
    assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert read_single_error_line(capsys)["error"] == "validation"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [[], ["nope"], ["simulate", "--n", "abc"],
                                  ["fit", "--bogus"], ["check-schemes", "--lam"]])
def test_malformed_command_line_is_one_json_line(capsys, argv):
    assert main(argv) == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation" and payload["message"].startswith("ratioreg")


def test_help_lists_defaults(capsys):
    """For every subcommand, each default of the flag table is shown by --help
    (or the flag's help names its default itself) and is the value the parser
    supplies."""
    for command, (_, _, flags) in _COMMANDS.items():
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        parsed = vars(build_parser().parse_args([command]))
        for dest, (kind, default, text) in flags.items():
            if default is None:
                assert parsed[dest] is None
                continue
            assert (" ".join(text.split()) if "(default" in text
                    else f"(default: {default})") in shown, (command, dest)
            assert parsed[dest] == (kind(default) if kind and isinstance(default, str)
                                    else default), (command, dest)


def test_cli_defaults_are_the_library_defaults():
    """Three flags that repeat a library default take it from the library."""
    for command, dest, function in [("fit", "iterations", rr.fit_iterated_lavrentiev),
                                    ("rates", "mu_q", rr.run_rate_study),
                                    ("check-schemes", "grid_size", rr.check_scheme_constants)]:
        default = inspect.signature(function).parameters[dest].default
        assert vars(build_parser().parse_args([command]))[dest] == default, (command, dest)


def test_every_config_help_says_flags_override(capsys):
    """Every subcommand reads its config file as flags ahead of its command line."""
    for command in _COMMANDS:
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())
        assert "--config CONFIG JSON file supplying flag values (flags override)" in shown, command


# Runs command lines through ``python -m ratioreg`` (``runpy``) in one fresh
# interpreter, then prints their exit codes and every loaded scipy, concurrent
# and multiprocessing module.  With argument "block", a ``sys.meta_path`` finder
# refuses every scipy module first, as if scipy were not installed.
FRESH_RUNS = """
import importlib.abc, json, runpy, sys
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
if sys.argv[2] == "block":
    sys.meta_path.insert(0, NoScipy())
import ratioreg.cli
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["ratioreg", *argv]
    try:
        runpy.run_module("ratioreg", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, **{package: sorted(
    m for m in sys.modules if m.partition(".")[0] == package)
    for package in ("scipy", "concurrent", "multiprocessing")}}))
"""


def run_fresh(command_lines, env, block_scipy=False):
    result = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(command_lines),
                             "block" if block_scipy else "allow"],
                            capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture()
def every_subcommand(tmp_path, sample_files, small_pair):
    """One command line per subcommand, and --help, on small inputs in ``tmp_path``."""
    _, _, xp_path, xq_path = sample_files
    model_path = str(tmp_path / "model.json")
    rr.save_model(rr.fit_spectral(small_pair[2], rr.iterated_lavrentiev(0.2, 3)), model_path)
    return [["--help"],
            ["fit", "--xp", xp_path, "--xq", xq_path, "--lam", "0.3", "--iterations", "2",
             "--out", str(tmp_path / "fitted.json")],
            ["evaluate", "--model", model_path, "--points", xp_path,
             "--out", str(tmp_path / "values.csv")],
            ["simulate", "--n", "20", "--m", "20", "--replications", "1",
             "--out-dir", str(tmp_path / "study")],
            ["rates", "--n-list", "20,40", "--replications", "1",
             "--out", str(tmp_path / "rates.json")],
            ["capacity", "--xp", xp_path, "--num-lambdas", "4",
             "--out", str(tmp_path / "profile.csv")],
            ["check-schemes"]]


def test_cli_import_loads_no_scipy(subprocess_env):
    """Importing the CLI loads no scipy, concurrent or multiprocessing module."""
    assert run_fresh([], subprocess_env) == {"codes": [], "scipy": [], "concurrent": [],
                                             "multiprocessing": []}


def test_commands_without_cholesky_fit_load_no_scipy(every_subcommand, subprocess_env):
    """No subcommand runs a Cholesky fit, so none loads a scipy module: --help and all
    six subcommands, fit and rates included, run in one interpreter without one.  Nor
    does any load a concurrent or multiprocessing module: the study forks its workers
    with ``os.fork`` alone."""
    assert run_fresh(every_subcommand, subprocess_env) == {
        "codes": [0] * len(every_subcommand), "scipy": [], "concurrent": [],
        "multiprocessing": []}


def test_fit_imports_scipy_on_first_use(tmp_path, sample_files, subprocess_env):
    """The first fit in a fresh interpreter imports no scipy module either (it needs no
    LAPACK beyond numpy's), and the ``fit`` command writes the in-process model."""
    xp, xq, xp_path, xq_path = sample_files
    out = str(tmp_path / "model.json")
    got = run_fresh([["fit", "--xp", xp_path, "--xq", xq_path, "--lam", "0.3",
                      "--iterations", "2", "--out", out]], subprocess_env)
    assert got == {"codes": [0], "scipy": [], "concurrent": [], "multiprocessing": []}
    direct = rr.fit_iterated_lavrentiev(rr.assemble_gram(rr.KernelSpec(), xp, xq), 0.3, 2)
    assert np.array_equal(rr.load_model(out).alpha, direct.alpha)


def test_every_subcommand_runs_with_scipy_blocked(every_subcommand, subprocess_env):
    got = run_fresh(every_subcommand, subprocess_env, block_scipy=True)
    assert got["codes"] == [0] * len(every_subcommand) and got["scipy"] == []


def test_module_entry_point(tmp_path, subprocess_env):
    result = subprocess.run(
        [sys.executable, "-m", "ratioreg", "check-schemes", "--iterations", "5"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env)
    assert result.returncode == 0
    assert "all_satisfied: true" in result.stdout


def test_capacity_and_simulate_bytes_do_not_depend_on_blas_threads(tmp_path, subprocess_env):
    """``capacity`` on 1,600 points and an n = m = 400 study write the same bytes under
    1 and 2 BLAS threads, as README "Reproducibility" states."""
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 1600, 23, "p"), tmp_path / "xp.csv")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**subprocess_env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        printed = [subprocess.run([sys.executable, "-m", "ratioreg", *argv], cwd=out,
                                  env=env, capture_output=True, check=True).stdout
                   for argv in (["capacity", "--xp", "../xp.csv", "--out", "p.csv"],
                                ["simulate", "--n", "400", "--m", "400", "--replications",
                                 "2"])]
        outputs.append([*printed, *((out / name).read_bytes() for name in (
            "p.csv", "report.json", "replications.csv", "box_stats.csv"))])
    assert outputs[0] == outputs[1]


def test_fit_and_rates_bytes_do_not_depend_on_blas_threads(tmp_path, subprocess_env):
    """A ``fit`` at n = m = 1000 and a ``rates`` sweep write the same bytes under 1 and
    2 BLAS threads, as README "Reproducibility" states."""
    rr.save_samples_csv(rr.sample_normal(2.0, 5.0, 1000, 51, "p"), tmp_path / "xp.csv")
    rr.save_samples_csv(rr.sample_normal(3.0, 0.5, 1000, 52, "q"), tmp_path / "xq.csv")
    outputs = []
    for threads in ("1", "2"):
        env = {**subprocess_env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for argv in (["fit", "--xp", "xp.csv", "--xq", "xq.csv", "--lam", "0.1",
                      "--iterations", "3", "--out", f"model{threads}.json"],
                     ["rates", "--n-list", "50,100,200,400", "--replications", "5",
                      "--out", f"rates{threads}.json"]):
            subprocess.run([sys.executable, "-m", "ratioreg", *argv], cwd=tmp_path, env=env,
                           capture_output=True, check=True)
        outputs.append([(tmp_path / f"{name}{threads}.json").read_bytes()
                        for name in ("model", "rates")])
    assert outputs[0] == outputs[1]
