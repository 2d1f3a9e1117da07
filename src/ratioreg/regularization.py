"""Spectral regularization schemes and their filter algebra.

A scheme is a family of scalar functions g_lam applied to the spectrum of
the normalized kernel matrix.  Writing r_lam(t) = 1 - t * g_lam(t) for the
residual, a usable scheme satisfies, for all 0 < t <= t_max and lam > 0,

    |r_lam(t)|            <= c_residual,
    sqrt(t) * |g_lam(t)|  <= c_half / sqrt(lam),
    |g_lam(t)|            <= c_inverse / lam,
    t**s * |r_lam(t)|     <= lam**s          (qualification s).

The iterated shifted inversion with k steps has

    g_lam(t) = (1 - (lam / (lam + t))**k) / t,
    r_lam(t) = (lam / (lam + t))**k,

with constants c_residual = 1, c_half = sqrt(k), c_inverse = k and
qualification k; a single step (k = 1) is plain shifted inversion.  Hard
spectral cutoff keeps 1/t above the threshold and zero below, with all
three constants equal to 1 and unbounded qualification.

Filters are evaluated in forms that stay accurate for t near zero: the
iterated filter uses the geometric-sum identity

    g_lam(t) = (1 / (lam + t)) * sum_{j=0}^{k-1} (lam / (lam + t))**j,

which is exact at t = 0 (value k / lam) instead of 0/0, and the residual
uses the closed power form rather than 1 - t * g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, finite_array, finite_real, iteration_count, positive_real,
                     require_keys, whole_number)

SCHEME_KINDS = ("iterated_lavrentiev", "spectral_cutoff")


@dataclass(frozen=True)
class RegScheme:
    """A regularization scheme: kind, strength, and iteration count.

    ``kind`` is one of ``"iterated_lavrentiev"`` (k shifted inversions)
    or ``"spectral_cutoff"``.  ``lam`` must be positive.  ``iterations``
    is the step count k of the iterated scheme; for ``"spectral_cutoff"``
    it is checked as any count is, then stored as 1.  ``"lavrentiev"`` (a
    single shifted inversion) is accepted as input for
    ``"iterated_lavrentiev"`` with k = 1 and stored under that name.
    """

    kind: str
    lam: float
    iterations: int = 1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS + ("lavrentiev",):
            raise InputError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        object.__setattr__(self, "lam", positive_real(self.lam, "lam"))
        object.__setattr__(self, "iterations", iteration_count(self.iterations, "iterations"))
        if self.kind == "lavrentiev":
            if self.iterations != 1:
                raise InputError("kind 'lavrentiev' means a single iteration; "
                                 "use 'iterated_lavrentiev' for k > 1")
            object.__setattr__(self, "kind", "iterated_lavrentiev")
        if self.kind == "spectral_cutoff":
            object.__setattr__(self, "iterations", 1)

    # -- filter constants ---------------------------------------------------

    @property
    def residual_bound(self) -> float:
        """Uniform bound on |r_lam| (1 for every scheme here)."""
        return 1.0

    @property
    def half_order_bound(self) -> float:
        """Bound c with sqrt(t) |g_lam(t)| <= c / sqrt(lam); 1 for cutoff, which stores k = 1."""
        return math.sqrt(self.iterations)

    @property
    def inverse_order_bound(self) -> float:
        """Bound c with |g_lam(t)| <= c / lam; 1 for cutoff, which stores k = 1."""
        return float(self.iterations)

    @property
    def qualification(self) -> float:
        """Largest s with t**s |r_lam(t)| <= lam**s (inf for cutoff)."""
        if self.kind == "spectral_cutoff":
            return math.inf
        return float(self.iterations)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "k": self.iterations, "lambda": self.lam}

    @staticmethod
    def from_dict(data: dict) -> "RegScheme":
        require_keys(data, ("kind", "lambda"), "scheme")
        return RegScheme(kind=data["kind"], lam=data["lambda"],
                         iterations=data.get("k", 1))


def iterated_lavrentiev(lam: float, iterations: int) -> RegScheme:
    return RegScheme(kind="iterated_lavrentiev", lam=lam, iterations=iterations)


def spectral_cutoff(lam: float) -> RegScheme:
    return RegScheme(kind="spectral_cutoff", lam=lam)


def _as_spectrum(t) -> tuple[np.ndarray, bool]:
    arr = finite_array(t, "spectral argument")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and arr.min() < 0.0:
        raise InputError(f"spectral arguments must be non-negative, got min {arr.min()!r}")
    return arr, scalar


def _as_given(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _shifted(lams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, lam + t), one row per strength; InputError where lam + t passes the float range."""
    lam = np.asarray(lams, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # raised below, not warned
        shifted = lam + t
    if np.isinf(shifted).any():
        raise InputError(f"lam + t overflows: lam {float(lam.max())!r}, t {float(t.max())!r}")
    return lam, shifted


def _geometric_sum(lams, t: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """(sum_r weights[r] * rho**r, lam + t) with rho = lam / (lam + t), one row per strength.

    The one power loop of the iterated scheme: weights 1 give g, k - r give q.
    """
    lam, shifted = _shifted(lams, t)
    ratio = lam / shifted
    total = np.zeros(shifted.shape)
    power = np.ones(shifted.shape)
    for weight in weights:
        total = total + weight * power
        power = power * ratio
    return total, shifted


def _cutoff(t: np.ndarray, lam: float, order: int) -> np.ndarray:
    """t**-order where t >= lam and 0 below: the cutoff's g (order 1) and q (order 2)."""
    out = np.zeros(t.shape)
    keep = t >= lam
    out[keep] = 1.0 / t[keep] ** order
    return out


def filter_value(scheme: RegScheme, t):
    """Evaluate g_lam at t (scalar or array, t >= 0).

    The iterated scheme is evaluated through its geometric-sum form,
    which involves only the positive quantity lam / (lam + t) and is
    therefore stable down to and including t = 0, where it returns
    exactly iterations / lam.
    """
    arr, scalar = _as_spectrum(t)
    return _as_given(_cutoff(arr, scheme.lam, 1) if scheme.kind == "spectral_cutoff"
                     else iterated_filter_rows([scheme.lam], scheme.iterations, arr)[0], scalar)


def iterated_filter_rows(lams, count, t) -> np.ndarray:
    """g_{lam,k}(t) of the iterated scheme with k = ``count`` at every strength.

    ``lams`` must be positive.  Row j of the (len(lams), len(t)) result
    holds g at ``lams[j]``.  The geometric sum is elementwise, so every row
    has the bits of ``filter_value`` at its strength.
    """
    arr, _ = _as_spectrum(t)
    total, shifted = _geometric_sum(lams, arr, [1] * iteration_count(count, "iteration count"))
    return total / shifted


def residual_value(scheme: RegScheme, t):
    """Evaluate r_lam(t) = 1 - t * g_lam(t) in closed form.

    For the iterated scheme this is (lam / (lam + t))**k computed as a
    power of a quantity in (0, 1], never via the subtraction, so it keeps
    full relative accuracy where the residual is tiny.
    """
    arr, scalar = _as_spectrum(t)
    if scheme.kind == "spectral_cutoff":
        return _as_given(np.where(arr >= scheme.lam, 0.0, 1.0), scalar)
    lam, shifted = _shifted([scheme.lam], arr)
    return _as_given((lam / shifted)[0] ** scheme.iterations, scalar)


def filter_quotient_value(scheme: RegScheme, t):
    """Evaluate the difference quotient q_lam(t) = (g_lam(t) - g_lam(0)) / t.

    Needed by the spectral fitting path for the expansion coefficients.
    The naive quotient cancels catastrophically for t << lam, so the
    iterated scheme uses the equivalent sum

        q_lam(t) = -(1 / (lam * (lam + t))) * sum_{r=0}^{k-1} (k - r) * rho**r,

    rho = lam / (lam + t), whose terms all share one sign.  At t = 0
    this continues to the limit -k (k + 1) / (2 lam**2).
    """
    arr, scalar = _as_spectrum(t)
    lam = scheme.lam
    if scheme.kind == "spectral_cutoff":
        return _as_given(_cutoff(arr, lam, 2), scalar)
    total, shifted = _geometric_sum([lam], arr, range(scheme.iterations, 0, -1))
    with np.errstate(over="ignore"):  # lam (lam + t) = inf only where |q| < k^2 * 1e-308
        return _as_given(-total[0] / (lam * shifted[0]), scalar)


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of one filter inequality scanned over a spectral grid.

    ``margin`` is the minimum over the grid of (bound - value); a
    negative margin means the inequality failed somewhere, and
    ``worst_t`` records where the margin is attained.
    """

    name: str
    margin: float
    worst_t: float
    satisfied: bool


@dataclass(frozen=True)
class SchemeCheckReport:
    scheme: RegScheme
    t_max: float
    grid_size: int
    qualification: float
    checks: tuple[InequalityCheck, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme.to_dict(),
            "t_max": self.t_max,
            "grid_size": self.grid_size,
            "qualification": None if math.isinf(self.qualification) else self.qualification,
            "all_satisfied": self.all_satisfied,
            # JSON has no infinities: a non-finite margin is written as null
            "checks": [
                {"name": c.name, "margin": c.margin if math.isfinite(c.margin) else None,
                 "worst_t": c.worst_t, "satisfied": c.satisfied}
                for c in self.checks
            ],
        }


def check_scheme_constants(scheme: RegScheme, t_max: float, grid_size: int = 2000,
                           qualification: float | None = None) -> SchemeCheckReport:
    """Scan the four filter inequalities over a log grid on (0, t_max].

    ``qualification`` overrides the order s used in the qualification
    inequality, so a deliberately wrong claim (say s = 2 for a single
    shifted inversion) is reported as violated.  When the scheme's own
    qualification is unbounded and no finite override is given, the
    qualification check is recorded as trivially satisfied with infinite
    margin.

    The grid spans [min(lam, t_max) * 1e-9, t_max] logarithmically: the
    lower end sits far below the regularization strength because that is
    where the inverse-order bound is approached.  InputError if that end
    underflows to 0, or if k / lam, lam + t_max or lam**s overflows.
    """
    t_max = positive_real(t_max, "t_max")
    grid_size = whole_number(grid_size, "grid_size", minimum=2)
    if qualification is None:
        s = scheme.qualification
    elif qualification == math.inf:  # an unbounded claim, trivially satisfied
        s = math.inf
    else:
        s = finite_real(qualification, "qualification order")
        if s < 0.0:
            raise InputError(f"qualification order must be non-negative, got {s!r}")

    lam = scheme.lam
    lo = min(lam, t_max) * 1e-9
    if lo == 0.0:
        raise InputError(f"min(lam, t_max) * 1e-9 underflows to 0: lam={lam!r}, t_max={t_max!r}")
    if math.isinf(scheme.inverse_order_bound / lam) or math.isinf(lam + t_max):
        raise InputError(f"k / lam or lam + t_max overflows: k={scheme.iterations}, "
                         f"lam={lam!r}, t_max={t_max!r}")
    try:
        bound = math.inf if math.isinf(s) else lam**s
    except OverflowError as exc:
        raise InputError(f"lam**s overflows: lam={lam!r}, s={s!r}") from exc
    grid = np.geomspace(lo, t_max, grid_size)
    g = filter_value(scheme, grid)
    r = residual_value(scheme, grid)
    if math.isinf(s):  # an unbounded order holds at every t
        t_s_r = np.zeros(grid_size)
    else:
        # t**s |r| in log space: t**s overflows once t_max**s passes the
        # float range, and (lam / (lam + t))**k underflows before that
        if scheme.kind == "spectral_cutoff":
            log_r = np.where(grid >= lam, -np.inf, 0.0)
        else:
            log_r = -scheme.iterations * np.logaddexp(0.0, np.log(grid) - math.log(lam))
        with np.errstate(over="ignore", invalid="ignore"):
            t_s_r = np.exp(s * np.log(grid) + log_r)
        t_s_r[log_r == -np.inf] = 0.0  # r = 0 makes the term 0 at any order, not inf - inf

    def scan(name: str, values: np.ndarray, bound: float) -> InequalityCheck:
        gaps = bound - values
        worst = int(np.argmin(gaps))
        margin = float(gaps[worst])
        return InequalityCheck(name=name, margin=margin, worst_t=float(grid[worst]),
                               satisfied=margin >= -1e-12 * max(1.0, abs(bound)))

    checks = (
        scan("residual_sup", np.abs(r), scheme.residual_bound),
        scan("half_order", np.sqrt(grid) * np.abs(g),
             scheme.half_order_bound / math.sqrt(lam)),
        scan("inverse_order", np.abs(g), scheme.inverse_order_bound / lam),
        scan("qualification", t_s_r, bound),
    )
    return SchemeCheckReport(scheme=scheme, t_max=t_max, grid_size=grid_size,
                             qualification=s, checks=checks)
