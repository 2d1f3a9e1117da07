"""Maps of the points under which every output keeps its bits.

The kernel reads points only through x - y and |x - y|^2 / (2 h^2).  So three
maps leave every kernel value bit-identical, and with it f_bar, the spectrum,
both fits, the ladder, evaluation and the capacity profile:

- reflection x -> -x, which negates every difference exactly;
- scaling the points and the bandwidth by one power of two, which scales every
  squared difference and 2 h^2 by the same power of four;
- translation by c, when the points and c lie on a dyadic grid fine enough that
  every x + c and x - y is exact (2^-30 with |x|, |c| < 32 takes 36 bits).

The probes are explicit: the default probe grid is a linspace over the
sample's box, and a linspace does not translate exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ratioreg as rr
from ratioreg.kernel import KNOWN_FAMILIES

SYMMETRY = settings(derandomize=True, max_examples=20, deadline=None)
LIMIT = 32  # every coordinate, and the translation, lies in (-LIMIT, LIMIT)


@st.composite
def problems(draw):
    """A sample pair, probes and a shift on one dyadic grid, with a kernel and (lam, k)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    step = 2.0 ** -draw(st.sampled_from([10, 30]))
    # a narrow spread against the bandwidth gives a low-rank K, a wide one the dense path
    spread = draw(st.sampled_from([0.25, LIMIT]))

    def on_grid(*shape, half_width=spread):
        bound = round(half_width / step)
        return rng.integers(1 - bound, bound, size=shape) * step

    family = draw(st.sampled_from(KNOWN_FAMILIES))
    spec = rr.KernelSpec(family=family, bandwidth=draw(st.sampled_from([1.0, 4.0, 8.0])))
    return {"spec": spec, "xp": on_grid(draw(st.integers(8, 80)), dim),
            "xq": on_grid(draw(st.integers(2, 80)), dim),
            "probes": on_grid(draw(st.integers(1, 40)), dim),
            "shift": on_grid(dim, half_width=LIMIT),
            "lam": draw(st.floats(0.01, 1.0)), "k": draw(st.integers(1, 5))}


def outputs(spec, xp, xq, probes, lam, k) -> dict[str, bytes]:
    """The bytes of every output the package computes from a sample pair."""
    gram = rr.assemble_gram(spec, rr.SampleSet(xp, "p"), rr.SampleSet(xq, "q"))
    fit = rr.fit_iterated_lavrentiev(gram, lam, k)
    spectral = rr.fit_spectral(gram, rr.iterated_lavrentiev(lam, k))
    profile = rr.capacity_profile(gram, [lam, 2.0 * lam], probes)
    arrays = {
        "f_bar": gram.f_bar, "t": gram.eigensystem[0],
        "fit values": fit.values_at_xp, "fit alpha": fit.alpha,
        "spectral values": spectral.values_at_xp, "spectral alpha": spectral.alpha,
        "ladder": rr.fit_iterated_lavrentiev_ladder(gram, [4.0 * lam, 2.0 * lam, lam], k),
        "evaluate": rr.evaluate_batch(fit, probes),
        "n_eff": profile.n_eff, "n_inf": profile.n_inf,
        "lambda_star": profile.lambda_star,  # None reads as nan
    }
    return {name: np.asarray(value, dtype=float).tobytes() for name, value in arrays.items()}


def assert_same_bits(problem, spec, move) -> None:
    """The outputs of ``problem`` and of its points under ``move`` (kernel ``spec``) agree."""
    lam, k = problem["lam"], problem["k"]
    points = [problem[name] for name in ("xp", "xq", "probes")]
    want = outputs(problem["spec"], *points, lam, k)
    got = outputs(spec, *map(move, points), lam, k)
    assert [name for name in want if got[name] != want[name]] == []


@SYMMETRY
@given(problems())
def test_reflection_keeps_every_bit(problem):
    assert_same_bits(problem, problem["spec"], np.negative)


@SYMMETRY
@given(problems(), st.sampled_from([-5, -1, 1, 4]))
def test_scaling_points_and_bandwidth_by_a_power_of_two_keeps_every_bit(problem, power):
    spec = problem["spec"]
    scaled = rr.KernelSpec(family=spec.family, bandwidth=spec.bandwidth * 2.0**power)
    assert_same_bits(problem, scaled, lambda points: points * 2.0**power)


@SYMMETRY
@given(problems())
def test_dyadic_translation_keeps_every_bit(problem):
    assert_same_bits(problem, problem["spec"], lambda points: points + problem["shift"])
