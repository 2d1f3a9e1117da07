"""Fuzz of the CLI error contract.

Malformed config files, model files, sample CSVs and flag values go to
``cli.main`` in-process.  Whatever the input, the command either succeeds
with nothing on stderr, or exits 1 (I/O), 2 (bad input) or 3 (numerical
failure) with exactly one JSON line on stderr holding ``error`` and
``message``.

Sizes stay small so each example runs in milliseconds: the base command
lines use samples of a few points, and no drawn number exceeds 4 unless
it is a float (which the integer flags reject) or 10**400, an integer past
the float range, which every integer flag rejects at once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ratioreg as rr
from ratioreg.cli import build_parser, main

EXIT_CODES = {"io": 1, "validation": 2, "numerical": 3}

# Files every command line below can name, written once per example.
XP, XQ, MODEL = "xp.csv", "xq.csv", "model.json"

BASE = {
    "fit": {"xp": XP, "xq": XQ, "lam": 0.3, "iterations": 2, "out": "fitted.json"},
    "evaluate": {"model": MODEL, "points": XP, "out": "values.csv"},
    "simulate": {"n": 4, "m": 4, "mu_q_list": "3", "k_list": "1,2", "replications": 1,
                 "grid_size": 3, "threads": 1, "out_dir": "study"},
    "rates": {"n_list": "4,8", "replications": 1, "iterations": 2},
    "capacity": {"xp": XP, "num_lambdas": 3, "out": "profile.csv"},
    "check-schemes": {"grid_size": 50},
}


def _flag_keys() -> dict[str, tuple[str, ...]]:
    """Every command's flags (as config keys), read from the parser itself."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: tuple(action.dest for action in sub._actions
                        if action.option_strings and action.dest not in ("help", "config"))
            for name, sub in commands.choices.items()}


KEYS = _flag_keys()

WORDS = st.sampled_from(
    ["", " ", "abc", "1,two", "2,,3", "4,2", "3", "-1", "0", "0.5", "nan", "inf", "-inf",
     "1e400", "gaussian", "custom_ref", "lavrentiev", "spectral_cutoff", "json",
     "été", "no/such/dir/x.csv", XP, MODEL])
# Short text with no digits (a drawn "99999999" would be a huge sample size)
# and no "-" (argparse would read "-h" as a flag).
TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="-"),
               max_size=6)
NUMBERS = st.sampled_from([0, 1, 2, 4, -1, 0.0, 0.5, -0.5, 2.5, 1e-300, 5e-324, 1e308, 1.7e308,
                           10**400, math.inf, -math.inf, math.nan])
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, WORDS, TEXT)
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                        st.dictionaries(WORDS, SCALARS, max_size=2))
FLAG_VALUES = st.one_of(WORDS, TEXT, NUMBERS.map(repr))


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def argv_of(command: str, options: dict) -> list[str]:
    argv = [command]
    for key, value in options.items():
        argv += [flag(key), value if isinstance(value, str) else repr(value)]
    return argv


def write_inputs() -> None:
    """Valid inputs in the working directory: two small samples and a model."""
    xp = rr.sample_normal(2.0, 5.0, 6, 1, "p")
    xq = rr.sample_normal(3.0, 0.5, 5, 2, "q")
    rr.save_samples_csv(xp, XP)
    rr.save_samples_csv(xq, XQ)
    spec = rr.KernelSpec()
    gram = rr.assemble_gram(spec, xp, xq)
    rr.save_model(rr.fit_spectral(gram, rr.iterated_lavrentiev(0.3, 2)), MODEL)


def run_in_temp_dir(prepare, argv: list[str]) -> tuple[int, str]:
    """Run ``main(argv)`` in a fresh directory after ``prepare()``; (code, stderr)."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            write_inputs()
            prepare()
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(start)
    return code, err.getvalue()


def assert_contract(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    assert EXIT_CODES[payload["error"]] == code


FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(command=st.sampled_from(sorted(BASE)), data=st.data())
def test_malformed_config_file(command, data):
    config = {key: data.draw(JSON_VALUES, label=key)
              for key in data.draw(st.lists(st.sampled_from(KEYS[command] + ("bogus",)),
                                            min_size=1, max_size=3, unique=True))}
    as_bytes = data.draw(st.sampled_from(["json", "truncated", "latin-1"]))

    def prepare():
        text = json.dumps(config)
        with open("config.json", "wb") as handle:
            if as_bytes == "json":
                handle.write(text.encode())
            elif as_bytes == "truncated":
                handle.write(text[:-1].encode())
            else:
                handle.write(text.encode("latin-1", "replace") + b"\xff")

    base = {key: value for key, value in BASE[command].items() if key not in config}
    assert_contract(*run_in_temp_dir(
        prepare, argv_of(command, base) + ["--config", "config.json"]))


@FUZZ
@given(command=st.sampled_from(sorted(BASE)), data=st.data())
def test_bad_flag_values(command, data):
    options = dict(BASE[command])
    for key in data.draw(st.lists(st.sampled_from(KEYS[command]), min_size=1, max_size=2,
                                  unique=True)):
        options[key] = data.draw(FLAG_VALUES, label=key)
    assert_contract(*run_in_temp_dir(lambda: None, argv_of(command, options)))


def _model_edits():
    """(path, value) edits of a model file; value None at a path deletes the key."""
    paths = st.sampled_from([("kernel",), ("scheme",), ("alpha",), ("mu_coeff",),
                             ("xp_points",), ("values_at_xp",), ("kernel", "family"),
                             ("kernel", "bandwidth"), ("kernel", "offset"),
                             ("scheme", "kind"), ("scheme", "lambda"), ("scheme", "k")])
    return st.tuples(paths, st.one_of(st.just(None), JSON_VALUES.map(lambda v: ("set", v))))


@FUZZ
@given(edits=st.lists(_model_edits(), min_size=1, max_size=3),
       raw=st.one_of(st.none(), st.binary(max_size=24)))
def test_malformed_model_file(edits, raw):
    def prepare():
        if raw is not None:
            with open(MODEL, "wb") as handle:
                handle.write(raw)
            return
        with open(MODEL) as handle:
            model = json.load(handle)
        for path, edit in edits:
            holder = model
            for key in path[:-1]:
                holder = holder[key] if isinstance(holder.get(key), dict) else {}
            if edit is None:
                holder.pop(path[-1], None)
            else:
                holder[path[-1]] = edit[1]
        with open(MODEL, "w") as handle:
            json.dump(model, handle)

    assert_contract(*run_in_temp_dir(
        prepare, argv_of("evaluate", BASE["evaluate"])))


@FUZZ
@given(command=st.sampled_from(["evaluate", "capacity", "fit"]),
       content=st.one_of(st.binary(max_size=40),
                         st.lists(st.lists(st.one_of(WORDS, NUMBERS.map(repr)), max_size=3),
                                  max_size=4).map(
                             lambda rows: "\n".join(",".join(r) for r in rows).encode())))
def test_malformed_sample_csv(command, content):
    def prepare():
        with open(XP, "wb") as handle:
            handle.write(content)

    assert_contract(*run_in_temp_dir(prepare, argv_of(command, BASE[command])))


@pytest.mark.parametrize("command, path, text", [
    ("evaluate", MODEL, "[" * 100_000 + "]" * 100_000),
    ("simulate", "config.json", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    ("evaluate", MODEL, "1" * 5_000),
    ("check-schemes", "config.json", '{"lam": ' + "1" * 5_000 + "}"),
], ids=["evaluate --model", "simulate --config",
        "evaluate --model long integer", "check-schemes --config long integer"])
def test_unparseable_json_is_bad_input(command, path, text):
    """A JSON file nested too deeply, or holding an integer too long, to parse
    exits 2, not with a traceback."""
    def prepare():
        with open(path, "w") as handle:
            handle.write(text)

    extra = ["--config", path] if path != MODEL else []
    code, err = run_in_temp_dir(prepare, argv_of(command, BASE[command]) + extra)
    assert code == 2, err
    assert_contract(code, err)


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_command_lines_succeed(command):
    """The fuzzed command lines start from ones that work."""
    assert run_in_temp_dir(lambda: None, argv_of(command, BASE[command])) == (0, "")
