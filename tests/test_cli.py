import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import ratioreg as rr
from ratioreg import capacity as capacity_mod
from ratioreg.cli import main


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
    direct = rr.fit_iterated_lavrentiev(
        rr.assemble_gram(model.kernel, xp, xq), xp, xq, model.kernel, 0.3, 2)
    # CSV round-trips floats via repr, so the refit is bit-identical
    assert np.array_equal(model.alpha, direct.alpha)


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

    def refuse(gram, spectrum, bracket, rel_tol=1e-9, max_iter=200):
        raise rr.InputError("bracket does not straddle the balance point")

    monkeypatch.setattr(capacity_mod, "_balance_point", refuse)
    out = tmp_path / "profile.csv"
    code = main(["capacity", "--xp", xp_path, "--num-lambdas", "4",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["lambda_star"] is None
    assert "warning" in summary


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


def test_check_schemes_json_report(tmp_path, capsys):
    out = tmp_path / "checks.json"
    assert main(["check-schemes", "--kind", "spectral_cutoff", "--lam", "0.2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["all_satisfied"] is True
    assert len(payload["checks"]) == 4
    assert payload["qualification"] is None  # unbounded order serializes as null


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
    assert "'n'" in payload["message"] and "abc" in payload["message"]


@pytest.mark.parametrize("key, value, kind", [("n", 4.7, "integer"), ("n", 4.0, "integer"),
                                             ("n", True, "integer"), ("rho", True, "number")])
def test_config_number_flag_rejects_truncation_and_bool(tmp_path, capsys, key, value, kind):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"n": 20, "m": 20, "replications": 1, key: value}))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    assert f"'{key}'" in payload["message"] and kind in payload["message"]
    assert not (tmp_path / "report.json").exists()


def test_config_file_holding_a_list_rejected(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text(json.dumps([{"n": 20}]))
    code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)])
    assert code == 2
    payload = read_single_error_line(capsys)
    assert payload["error"] == "validation"
    assert "JSON object" in payload["message"]


def test_evaluate_rejects_model_without_scheme(tmp_path, fitted_model, capsys):
    data = json.loads(open(fitted_model).read())
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


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--help"])
    assert excinfo.value.code == 0
    assert "(default:" in capsys.readouterr().out


def test_cli_import_loads_no_spatial_or_sparse(subprocess_env):
    """Importing the CLI pulls in neither scipy.spatial nor scipy.sparse.

    Either costs a measurable share of every process start.
    """
    probe = ("import sys, ratioreg.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy.spatial', 'scipy.sparse'))))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=subprocess_env, check=True)
    assert result.stdout.strip() == "[]"


def test_module_entry_point(tmp_path, subprocess_env):
    result = subprocess.run(
        [sys.executable, "-m", "ratioreg", "check-schemes", "--iterations", "5"],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env)
    assert result.returncode == 0
    assert "all_satisfied: true" in result.stdout
