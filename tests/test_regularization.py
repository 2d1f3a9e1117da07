from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratioreg as rr
from ratioreg.regularization import (SCHEME_KINDS, filter_quotient_value,
                                     iterated_filter_rows, iterated_lavrentiev,
                                     spectral_cutoff)

ALL_K = (1, 2, 3, 5, 10)
LAMBDAS = (0.9, 0.5, 0.2, 0.1, 0.05)


def test_scheme_validation():
    with pytest.raises(rr.InputError):
        rr.RegScheme(kind="tikhonov", lam=0.1)
    with pytest.raises(rr.InputError):
        rr.RegScheme(kind="lavrentiev", lam=0.0)
    with pytest.raises(rr.InputError):
        rr.RegScheme(kind="lavrentiev", lam=-1.0)
    with pytest.raises(rr.InputError):
        rr.RegScheme(kind="iterated_lavrentiev", lam=0.1, iterations=0)
    with pytest.raises(rr.InputError):
        rr.RegScheme(kind="lavrentiev", lam=0.1, iterations=3)
    # values a model file can hold: each must be an InputError, not a TypeError
    for bad_lam in ("0.1", None, [0.1], True):
        with pytest.raises(rr.InputError, match="lam"):
            rr.RegScheme(kind="iterated_lavrentiev", lam=bad_lam)
    for bad_k in (math.nan, math.inf, 2.5, "2", None, True):
        with pytest.raises(rr.InputError, match="iterations"):
            rr.RegScheme(kind="iterated_lavrentiev", lam=0.1, iterations=bad_k)


def test_lavrentiev_is_an_input_alias():
    """The single step is stored, compared and written as iterated_lavrentiev, k = 1."""
    assert SCHEME_KINDS == ("iterated_lavrentiev", "spectral_cutoff")
    single = iterated_lavrentiev(0.3, 1)
    assert rr.RegScheme(kind="lavrentiev", lam=0.3) == single
    assert rr.RegScheme.from_dict({"kind": "lavrentiev", "lambda": 0.3}) == single
    assert single.to_dict()["kind"] == "iterated_lavrentiev"


def test_scheme_constants():
    for k in ALL_K:
        scheme = iterated_lavrentiev(0.3, k)
        assert scheme.residual_bound == 1.0
        assert scheme.half_order_bound == math.sqrt(k)
        assert scheme.inverse_order_bound == k
        assert scheme.qualification == k
    cutoff = spectral_cutoff(0.3)
    assert (cutoff.residual_bound, cutoff.half_order_bound,
            cutoff.inverse_order_bound) == (1.0, 1.0, 1.0)
    assert math.isinf(cutoff.qualification)


def test_scheme_round_trip():
    scheme = iterated_lavrentiev(0.25, 4)
    data = scheme.to_dict()
    assert data == {"kind": "iterated_lavrentiev", "k": 4, "lambda": 0.25}
    assert rr.RegScheme.from_dict(data) == scheme


def test_filter_value_single_step_examples():
    assert rr.filter_value(iterated_lavrentiev(0.5, 1), 0.5) == 1.0
    assert rr.filter_value(iterated_lavrentiev(1.0, 2), 1.0) == 0.75


def test_iterated_filter_rows_are_the_single_filters_bitwise():
    """One pass over the strengths gives every row with the bits of its own filter.

    The reference is the geometric sum of one scheme, written out here, and
    ``filter_value`` itself.
    """
    t = np.concatenate([[0.0, 1e-18], np.geomspace(1e-12, 2.0, 200)])
    lams = rr.LambdaGrid().with_anchor()
    for k in ALL_K:
        rows = iterated_filter_rows(lams, k, t)
        assert rows.shape == (len(lams), t.size)
        for row, lam in zip(rows, lams):
            shifted = lam + t
            total, power = np.zeros(t.size), np.ones(t.size)
            for _ in range(k):
                total = total + power
                power = power * (lam / shifted)
            assert np.array_equal(row, total / shifted)
            assert np.array_equal(row, rr.filter_value(iterated_lavrentiev(lam, k), t))
    for count in (0, 1.5, True, [1, 2]):
        with pytest.raises(rr.InputError, match="iteration count"):
            iterated_filter_rows(lams, count, t)


def test_quotient_and_cutoff_filters_are_bitwise():
    """q of the iterated scheme, and the cutoff's g and q, keep the bits of their loops.

    The references are the weighted geometric sum (weights k - r) and the
    cutoff's two branches, written out here.
    """
    t = np.concatenate([[0.0, 1e-18], np.geomspace(1e-12, 2.0, 200)])
    lams = rr.LambdaGrid().with_anchor()
    for k in ALL_K:
        for lam in lams:
            shifted = lam + t
            total, power = np.zeros(t.size), np.ones(t.size)
            for r in range(k):
                total = total + (k - r) * power
                power = power * (lam / shifted)
            quotient = filter_quotient_value(iterated_lavrentiev(lam, k), t)
            assert np.array_equal(quotient, -total / (lam * shifted))
    for lam in lams:
        keep = t >= lam
        g, q = np.zeros(t.size), np.zeros(t.size)
        g[keep] = 1.0 / t[keep]
        q[keep] = 1.0 / np.square(t[keep])
        assert np.array_equal(rr.filter_value(spectral_cutoff(lam), t), g)
        assert np.array_equal(filter_quotient_value(spectral_cutoff(lam), t), q)
        assert rr.filter_value(spectral_cutoff(lam), 2.0) == 0.5
        assert filter_quotient_value(spectral_cutoff(lam), 2.0) == 0.25


def test_filter_value_at_zero_is_analytic_limit():
    for k in ALL_K:
        for lam in LAMBDAS:
            scheme = iterated_lavrentiev(lam, k)
            assert rr.filter_value(scheme, 0.0) == k / lam
            near = rr.filter_value(scheme, 1e-12)
            assert near == pytest.approx(k / lam, rel=1e-6)


def test_residual_examples():
    assert rr.residual_value(iterated_lavrentiev(0.1, 1), 0.9) == pytest.approx(0.1, rel=1e-14)
    scheme = iterated_lavrentiev(0.3, 4)
    t = 0.7
    # numpy's pow and CPython's pow may disagree in the last ulp
    assert rr.residual_value(scheme, t) == pytest.approx((0.3 / (0.3 + t)) ** 4,
                                                         rel=1e-15)


def test_cutoff_filter_and_residual():
    scheme = spectral_cutoff(0.5)
    assert rr.filter_value(scheme, 0.4) == 0.0
    assert rr.filter_value(scheme, 0.5) == 2.0
    assert rr.filter_value(scheme, 2.0) == 0.5
    assert rr.filter_value(scheme, 0.0) == 0.0
    assert rr.residual_value(scheme, 0.4) == 1.0
    assert rr.residual_value(scheme, 0.5) == 0.0
    assert rr.filter_value(scheme, 0.0) == 0.0
    assert filter_quotient_value(scheme, 2.0) == 0.25
    assert filter_quotient_value(scheme, 0.1) == 0.0


def test_negative_spectrum_rejected():
    with pytest.raises(rr.InputError):
        rr.filter_value(iterated_lavrentiev(0.1, 1), -0.5)


def test_overflowing_shift_rejected():
    """lam + t past the float range is refused, without a warning (the suite
    makes warnings errors); the largest finite shifts keep the plain formulas."""
    scheme = iterated_lavrentiev(1e308, 1)
    for function in (rr.filter_value, rr.residual_value, filter_quotient_value):
        with pytest.raises(rr.InputError, match="lam \\+ t overflows"):
            function(scheme, [0.0, 1e308])
    with pytest.raises(rr.InputError, match="lam \\+ t overflows"):
        iterated_filter_rows([0.5, 1e308], 2, [1e308])
    assert rr.filter_value(scheme, 7e307) == 1.0 / (1e308 + 7e307)
    assert rr.residual_value(scheme, 7e307) == 1e308 / (1e308 + 7e307)


@pytest.mark.parametrize("k", ALL_K)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_filter_residual_identity(k, lam):
    """t * g(t) + r(t) = 1 across ten decades of t."""
    scheme = iterated_lavrentiev(lam, k)
    t = np.geomspace(1e-10, 10.0, 2000)
    identity = t * rr.filter_value(scheme, t) + rr.residual_value(scheme, t)
    assert np.abs(identity - 1.0).max() <= 1e-12


@pytest.mark.parametrize("k", ALL_K)
def test_residual_nesting(k):
    """Iterating k times multiplies the one-step residual k-fold."""
    t = np.geomspace(1e-8, 2.0, 500)
    one_step = rr.residual_value(iterated_lavrentiev(0.2, 1), t)
    k_step = rr.residual_value(iterated_lavrentiev(0.2, k), t)
    assert np.abs(k_step / one_step**k - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    lam_small=st.floats(1e-4, 10.0),
    factor=st.floats(1.0 + 1e-6, 100.0),
    t=st.floats(1e-10, 10.0),
    k=st.integers(1, 12),
)
def test_filter_monotone_in_lambda(lam_small, factor, t, k):
    low = rr.filter_value(iterated_lavrentiev(lam_small, k), t)
    high = rr.filter_value(iterated_lavrentiev(lam_small * factor, k), t)
    assert high <= low * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(1e-4, 10.0), t=st.floats(0.0, 10.0), k=st.integers(1, 12))
def test_residual_in_unit_interval(lam, t, k):
    r = rr.residual_value(iterated_lavrentiev(lam, k), t)
    assert 0.0 < r <= 1.0


def test_quotient_matches_naive_at_moderate_t():
    for k in ALL_K:
        scheme = iterated_lavrentiev(0.2, k)
        t = np.array([1e-3, 0.05, 0.3, 1.0, 2.0])
        naive = (rr.filter_value(scheme, t) - rr.filter_value(scheme, 0.0)) / t
        stable = filter_quotient_value(scheme, t)
        assert np.abs((stable - naive) / naive).max() <= 1e-12


def test_quotient_limit_at_zero():
    for k in ALL_K:
        for lam in (0.9, 0.2):
            scheme = iterated_lavrentiev(lam, k)
            expected = -k * (k + 1) / (2.0 * lam**2)
            assert filter_quotient_value(scheme, 0.0) == pytest.approx(expected, rel=1e-14)


def test_quotient_at_huge_strength_is_minus_zero_without_a_warning():
    """lam (lam + t) overflows at lam = 1e308, where |q| is below 1e-307: the
    quotient is -0.0, and no overflow warning leaks (warnings are errors here)."""
    for t in (0.0, 7e307):
        value = filter_quotient_value(iterated_lavrentiev(1e308, 1), t)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0


def test_quotient_at_tiny_strength_is_minus_inf_without_a_warning():
    """lam (lam + t) underflows to 0 at lam = 1e-308, where |q| >= k / 5e-324
    overflows: the quotient is -inf, and no divide warning leaks (warnings are
    errors here)."""
    for t in (0.0, 1e-300):
        assert filter_quotient_value(iterated_lavrentiev(1e-308, 3), t) == -math.inf


def test_constants_check_iterated_holds():
    report = rr.check_scheme_constants(iterated_lavrentiev(0.2, 3), t_max=2.0)
    assert report.all_satisfied
    assert {c.name for c in report.checks} == {
        "residual_sup", "half_order", "inverse_order", "qualification"}
    assert all(c.margin >= 0.0 for c in report.checks)


@pytest.mark.parametrize("t_max", [1e200, 1e308])
def test_constants_check_holds_at_huge_t_max(t_max):
    """t**s |r| is formed without overflow, so a true claim still holds."""
    with np.errstate(over="raise", invalid="raise"):
        for scheme in (iterated_lavrentiev(0.2, 3), iterated_lavrentiev(0.05, 1),
                       spectral_cutoff(0.3)):
            report = rr.check_scheme_constants(scheme, t_max=t_max)
            assert report.all_satisfied
            assert all(math.isfinite(c.margin) or c.margin == math.inf
                       for c in report.checks)
        wrong = rr.check_scheme_constants(iterated_lavrentiev(0.05, 1), t_max=t_max,
                                          qualification=2.0)
    assert not wrong.all_satisfied


def test_constants_check_cutoff_holds():
    report = rr.check_scheme_constants(spectral_cutoff(0.3), t_max=2.0)
    assert report.all_satisfied
    qual = [c for c in report.checks if c.name == "qualification"][0]
    assert math.isinf(qual.margin)


def test_constants_check_takes_an_unbounded_claim():
    """qualification=inf is an unbounded claim: satisfied, with infinite margin."""
    report = rr.check_scheme_constants(iterated_lavrentiev(0.05, 1), t_max=2.0,
                                       qualification=math.inf)
    assert report.qualification == math.inf and report.all_satisfied
    assert report.checks[-1].name == "qualification" and report.checks[-1].margin == math.inf


def test_constants_check_flags_wrong_qualification():
    """A single shifted inversion cannot carry a qualification-2 claim."""
    report = rr.check_scheme_constants(iterated_lavrentiev(0.05, 1), t_max=2.0,
                                       qualification=2.0)
    qual = [c for c in report.checks if c.name == "qualification"][0]
    assert not qual.satisfied
    assert not report.all_satisfied
    others = [c for c in report.checks if c.name != "qualification"]
    assert all(c.satisfied for c in others)


def test_constants_check_cutoff_finite_override():
    """Cutoff satisfies any finite qualification as well: where r = 0, t**s r is 0
    even where t**s overflows, not the nan of -inf + inf in log space."""
    for s, t_max in ((4.0, 2.0), (1e308, 10.0)):
        report = rr.check_scheme_constants(spectral_cutoff(0.3), t_max=t_max,
                                           qualification=s)
        assert report.all_satisfied and report.checks[-1].margin >= 0.0


_CHECK_NAMES = ("residual_sup", "half_order", "inverse_order", "qualification")


def _checks(*rows):
    """A report dict's "checks" from (margin, worst_t, satisfied) rows in check order."""
    return [{"name": name, "margin": margin, "worst_t": worst_t, "satisfied": satisfied}
            for name, (margin, worst_t, satisfied) in zip(_CHECK_NAMES, rows)]


_T0 = 2.0000000000000003e-10  # the grid's lower end min(0.2, t_max) * 1e-9
# (scheme, t_max, qualification) -> (report.to_dict(), qualification margin), as
# computed when the qualification check was written out beside the scan
GOLDEN_CHECKS = [
    ((iterated_lavrentiev(0.2, 3), 2.0, None), ({
        "scheme": {"kind": "iterated_lavrentiev", "k": 3, "lambda": 0.2}, "t_max": 2.0,
        "grid_size": 2000, "qualification": 3.0, "all_satisfied": True,
        "checks": _checks((2.9999999151542056e-09, _T0, True),
                          (1.6256487707197342, 0.07768275923324847, True),
                          (3.000000070585429e-08, _T0, True),
                          (0.00198948159278737, 2.0, True))}, 0.00198948159278737)),
    ((rr.RegScheme("lavrentiev", 0.2), 2.0, 2.0), ({
        "scheme": {"kind": "iterated_lavrentiev", "k": 1, "lambda": 0.2}, "t_max": 2.0,
        "grid_size": 2000, "qualification": 2.0, "all_satisfied": False,
        "checks": _checks((9.999999717180685e-10, _T0, True),
                          (1.1180341741759456, 0.19976975893302354, True),
                          (5.000000413701855e-09, _T0, True),
                          (-0.3236363636363637, 2.0, False))}, -0.3236363636363637)),
    ((spectral_cutoff(0.2), 2.0, None), ({
        "scheme": {"kind": "spectral_cutoff", "k": 1, "lambda": 0.2}, "t_max": 2.0,
        "grid_size": 2000, "qualification": None, "all_satisfied": True,
        "checks": _checks((0.0, _T0, True),
                          (0.011560465818255317, 0.2020841475875477, True),
                          (0.05156633047242831, 0.2020841475875477, True),
                          (None, _T0, True))}, math.inf)),
    ((iterated_lavrentiev(0.2, 3), 1e308, 5.0), ({
        "scheme": {"kind": "iterated_lavrentiev", "k": 3, "lambda": 0.2}, "t_max": 1e308,
        "grid_size": 2000, "qualification": 5.0, "all_satisfied": False,
        "checks": _checks((2.9999999151542056e-09, _T0, True),
                          (1.6257656229031352, 0.07641757773547878, True),
                          (3.000000070585429e-08, _T0, True),
                          (None, 1.8590006973843754e+155, False))}, -math.inf)),
]


@pytest.mark.parametrize("case, golden", GOLDEN_CHECKS,
                         ids=["default", "lavrentiev s=2", "cutoff", "t_max 1e308 s=5"])
def test_constants_check_golden_reports(case, golden):
    """Every check, the qualification one included, keeps its recorded bits."""
    scheme, t_max, s = case
    report = rr.check_scheme_constants(scheme, t_max=t_max, qualification=s)
    assert (report.to_dict(), report.checks[-1].margin) == golden


def test_constants_check_validation():
    with pytest.raises(rr.InputError):
        rr.check_scheme_constants(iterated_lavrentiev(0.1, 1), t_max=0.0)
    with pytest.raises(rr.InputError):
        rr.check_scheme_constants(iterated_lavrentiev(0.1, 1), t_max=1.0, grid_size=1)
    with pytest.raises(rr.InputError):
        rr.check_scheme_constants(iterated_lavrentiev(0.1, 1), t_max=1.0, qualification=-1.0)


def test_check_report_serializable():
    report = rr.check_scheme_constants(iterated_lavrentiev(0.2, 3), t_max=2.0)
    data = report.to_dict()
    assert data["all_satisfied"] is True
    assert data["scheme"]["k"] == 3
    assert len(data["checks"]) == 4
