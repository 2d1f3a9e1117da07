"""Acceptance gate: nine end-to-end checks, one visible line each.

Every test prints exactly one `[PASS]`/`[FAIL] criterion N: ...` line on
the real stdout (bypassing capture) so the verdicts are readable in any
pytest log, then asserts.  Tolerances are fixed here and should not be
loosened to make a failure go away.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

import ratioreg as rr
from ratioreg.experiment import derive_seed

ALL_K = (1, 2, 3, 5, 10)


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def _criterion(number: int, record: dict):
        try:
            yield record
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] criterion {number}: {record.get('detail', 'crashed before measuring')}")
            raise
        with capsys.disabled():
            print(f"[PASS] criterion {number}: {record['detail']}")
    return _criterion


@pytest.fixture(scope="module")
def full_study():
    start = time.perf_counter()
    report = rr.run_study(rr.SimConfig(), threads=1)
    return report, time.perf_counter() - start


def test_criterion_1_iteration_improves_study_medians(full_study, criterion):
    report, runtime = full_study
    with criterion(1, {}) as rec:
        worst_ratio, worst_at = -math.inf, None
        for mu_q in (2.0, 3.0, 4.0):
            base = report.box[repr(mu_q)]["1"]["median"]
            for k in (2, 3, 5, 10):
                ratio = report.box[repr(mu_q)][str(k)]["median"] / base
                if ratio > worst_ratio:
                    worst_ratio, worst_at = ratio, (mu_q, k)
        rec["detail"] = (f"default study in {runtime:.1f}s, {report.failures} failures; "
                         f"worst iterated/single median ratio {worst_ratio:.3f} "
                         f"at mu_q={worst_at[0]}, k={worst_at[1]} (need <= 1)")
        assert runtime < 120.0
        assert report.failures == 0
        assert worst_ratio <= 1.0


def test_criterion_2_recursion_agrees_with_spectral_path(criterion):
    spec = rr.KernelSpec()
    probes = np.linspace(-2.0, 6.0, 10).reshape(-1, 1)
    worst = 0.0
    for s in range(5):
        xp = rr.sample_normal(2.0, 5.0, 40, derive_seed(777, s, 0), "p")
        xq = rr.sample_normal(3.0, 0.5, 40, derive_seed(777, s, 1), "q")
        gram = rr.assemble_gram(spec, xp, xq)
        for lam in np.geomspace(0.1, 0.9, 5):
            by_k = rr.fit_iterated_lavrentiev_path(gram, xp, xq, spec,
                                                   float(lam), ALL_K)
            for k in ALL_K:
                direct = by_k[k]
                eig = rr.fit_spectral(gram, xp, xq, spec,
                                      rr.iterated_lavrentiev(float(lam), k))
                worst = max(worst,
                            np.abs(direct.values_at_xp - eig.values_at_xp).max(),
                            np.abs(rr.evaluate_batch(direct, probes)
                                   - rr.evaluate_batch(eig, probes)).max())
    with criterion(2, {}) as rec:
        rec["detail"] = (f"iterative vs eigendecomposition fits: max abs gap "
                         f"{worst:.3e} over 125 cases (need <= 1e-8)")
        assert worst <= 1e-8


def test_criterion_3_single_step_solves_shifted_system(criterion):
    spec = rr.KernelSpec()
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(20, 51))
        m = int(rng.integers(20, 51))
        lam = float(rng.uniform(0.1, 0.9))
        xp = rr.sample_normal(2.0, 5.0, n, derive_seed(88, trial, 0), "p")
        xq = rr.sample_normal(3.0, 0.5, m, derive_seed(88, trial, 1), "q")
        gram = rr.assemble_gram(spec, xp, xq)
        model = rr.fit_iterated_lavrentiev(gram, xp, xq, spec, lam, 1)
        direct = np.linalg.solve(gram.k_matrix + n * lam * np.eye(n), gram.f_bar)
        worst = max(worst, np.abs(model.values_at_xp - direct).max())
    with criterion(3, {}) as rec:
        rec["detail"] = (f"one-step fit vs dense solve of the shifted system: "
                         f"max abs gap {worst:.3e} over 20 instances (need <= 1e-10)")
        assert worst <= 1e-10


def test_criterion_4_filter_algebra_and_constants(criterion):
    grid = np.geomspace(1e-12, 2.0, 3000)
    worst_identity = 0.0
    worst_nesting = -math.inf
    with criterion(4, {}) as rec:
        for k in ALL_K:
            scheme = rr.iterated_lavrentiev(0.2, k)
            g = rr.filter_value(scheme, grid)
            r = rr.residual_value(scheme, grid)
            worst_identity = max(worst_identity, np.abs(grid * g + r - 1.0).max())
            nxt = rr.filter_value(rr.iterated_lavrentiev(0.2, k + 1), grid)
            worst_nesting = max(worst_nesting, float((g - nxt).max()))
            assert scheme.residual_bound == 1.0
            assert scheme.half_order_bound == math.sqrt(k)
            assert scheme.inverse_order_bound == k
            assert scheme.qualification == k
            assert rr.check_scheme_constants(scheme, t_max=2.0).all_satisfied
        cutoff = rr.spectral_cutoff(0.2)
        assert (cutoff.residual_bound, cutoff.half_order_bound,
                cutoff.inverse_order_bound) == (1.0, 1.0, 1.0)
        assert math.isinf(cutoff.qualification)
        assert rr.check_scheme_constants(cutoff, t_max=2.0).all_satisfied
        rec["detail"] = (f"filter identity residual {worst_identity:.3e}, "
                         f"worst nesting violation {worst_nesting:.3e} "
                         f"(need <= 1e-12); declared constants verified for "
                         f"k in {ALL_K} and the cutoff")
        assert worst_identity <= 1e-12
        assert worst_nesting <= 1e-12


def test_criterion_5_closed_form_ratio_matches_density_quotient(criterion):
    x = np.linspace(-10.0, 10.0, 10_000)
    worst = 0.0
    for mu_q in (2.0, 3.0, 4.0):
        oracle = scipy.stats.norm.pdf(x, loc=mu_q, scale=math.sqrt(0.5)) \
            / scipy.stats.norm.pdf(x, loc=2.0, scale=math.sqrt(5.0))
        worst = max(worst, np.abs(rr.true_beta(x, mu_q) / oracle - 1.0).max())
    with criterion(5, {}) as rec:
        rec["detail"] = (f"closed-form target vs normal-pdf quotient: max rel err "
                         f"{worst:.3e} on 10000 points (need <= 1e-12)")
        assert worst <= 1e-12
        assert rr.true_beta(2.0, 2.0) == math.sqrt(10.0)


def test_criterion_6_capacity_diagnostics(criterion):
    spec = rr.KernelSpec()
    xp = rr.sample_normal(2.0, 5.0, 60, 11, "p")
    gram = rr.reference_gram(spec, xp)
    with criterion(6, {}) as rec:
        worst_mean = 0.0
        for lam in (0.9, 0.3, 0.1, 0.05):
            mean_lev = np.mean([rr.christoffel(gram, spec, xp, lam, x)
                                for x in xp.points])
            worst_mean = max(worst_mean,
                             abs(mean_lev - rr.effective_dimension(gram, lam)))
        lams = np.geomspace(0.01, 2.0, 40)
        traded = np.array([rr.effective_dimension(gram, l) / l for l in lams])
        # the dimension/strength trade-off falls strictly as lam grows
        strictly_decreasing = bool(np.all(np.diff(traded) < 0))
        star = rr.find_lambda_star(gram)
        residual = abs(rr.effective_dimension(gram, star) / star - gram.n)
        single = rr.reference_gram(rr.KernelSpec(family="gaussian"),
                                   rr.SampleSet([[0.0]], "p"))
        golden_gap = abs(rr.find_lambda_star(single) - (math.sqrt(5.0) - 1.0) / 2.0)
        rec["detail"] = (f"mean leverage vs trace formula gap {worst_mean:.3e} "
                         f"(<= 1e-8); balance residual {residual:.3e} "
                         f"(<= {1e-4 * gram.n:.0e}); scalar balance point off the "
                         f"golden-ratio value by {golden_gap:.3e} (<= 1e-6)")
        assert worst_mean <= 1e-8
        assert strictly_decreasing
        assert residual <= 1e-4 * gram.n
        assert golden_gap <= 1e-6


def test_criterion_7_iteration_wins_pointwise(criterion):
    config = rr.SimConfig(mu_q_list=(2.0,), k_list=(1, 10), replications=20,
                          seed=0)
    report = rr.run_study(config, probe_grid=np.linspace(-2.0, 6.0, 161))
    errors = {(c.k, c.replication): c.max_pointwise_error for c in report.cells}
    wins = sum(errors[(10, rep)] < errors[(1, rep)] for rep in range(20))
    with criterion(7, {}) as rec:
        rec["detail"] = (f"deep iteration beats one step on worst grid error in "
                         f"{wins}/20 replications (need >= 15)")
        assert wins >= 15


def test_criterion_8_cli_study_is_byte_deterministic(criterion, tmp_path, subprocess_env):
    dirs = [tmp_path / f"run{i}" for i in range(4)]
    for out_dir, threads in zip(dirs, ("1", "1", "4", "4")):
        result = subprocess.run(
            [sys.executable, "-m", "ratioreg", "simulate", "--seed", "0",
             "--threads", threads, "--out-dir", str(out_dir)],
            capture_output=True, text=True, env=subprocess_env)
        assert result.returncode == 0, result.stderr
    with criterion(8, {}) as rec:
        identical = all(
            (d / name).read_bytes() == (dirs[0] / name).read_bytes()
            for d in dirs[1:]
            for name in ("report.json", "replications.csv", "box_stats.csv"))
        rec["detail"] = ("four CLI study runs (threads 1,1,4,4) produced "
                         f"byte-identical outputs: {identical}")
        assert identical
        report = json.loads((dirs[0] / "report.json").read_text())
        assert report["failures"] == 0


def test_criterion_9_slope_estimator_recovers_known_rates(criterion):
    n = np.array([50, 100, 200, 400, 800])
    worst = 0.0
    for r in (0.5, 1.0, 1.7):
        errors = 2.3 * (n ** -0.5) ** r
        worst = max(worst, abs(rr.fit_log_slope(n, errors) - r))
    with criterion(9, {}) as rec:
        rec["detail"] = (f"log-log slope recovery: max abs error {worst:.3e} on "
                         f"three synthetic decay rates (need <= 1e-10)")
        assert worst <= 1e-10
