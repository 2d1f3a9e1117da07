"""Data-driven choice of the regularization strength.

The quasi-optimality rule needs no knowledge of noise levels or
smoothness: fit along a geometric ladder of strengths

    lam_i = lam_0 * rho**i,       i = 0 .. size,    0 < rho < 1,

measure consecutive differences of the fitted value vectors in the
root-mean-square norm on the reference sample,

    d_i = sqrt( (1/n) * sum ( v_i - v_{i-1} )^2 ),    i = 1 .. size,

and keep the strength whose difference is smallest.  The top of the
ladder (i = 0) only anchors the first difference and is never chosen;
ties go to the larger strength.  The rule takes one ``GramSystem``, the
holder of the kernel and both samples, and all the fits share the
system's eigensystem of K/n, r eigenpairs from a pivoted Cholesky factor
(see ``kernel.GramSystem.eigensystem``): the whole ladder costs an
(L x r) @ (r x n) product and O(n r) memory besides that factor, never
forms the n x n kernel matrix, and returns the (L, n) values
(``estimator.fit_iterated_lavrentiev_ladder``).  The trace keeps the row
at the chosen strength and builds no model; ``estimator.fit_spectral`` at
that strength gives one whose values have the row's bits.  The system
keeps its eigensystem, so selecting at several counts factors once.

The a-priori strength for sample sizes (m, n) under a polynomial source
condition of order eta and an embedding index varsigma is

    lam = (m**-0.5 + n**-0.5) ** (1 / (eta + 1 - varsigma)),

the balance point of the corresponding bias and variance terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, finite_array, finite_real, positive_real, whole_number
from .estimator import fit_iterated_lavrentiev_ladder
from .kernel import GramSystem


@dataclass(frozen=True)
class LambdaGrid:
    """Geometric ladder of regularization strengths.

    ``values`` holds lam_0 * rho**i for i = 1 .. size, decreasing; the
    anchor lam_0 itself is not part of ``values`` because the selection
    rule cannot choose it.  The defaults span [0.1, 0.9] in nine
    geometric steps.
    """

    lambda_0: float = 0.9
    rho: float = (1.0 / 9.0) ** (1.0 / 9.0)
    size: int = 9

    def __post_init__(self):
        object.__setattr__(self, "lambda_0", positive_real(self.lambda_0, "lambda_0"))
        object.__setattr__(self, "rho", positive_real(self.rho, "rho"))
        if not self.rho < 1.0:
            raise InputError(f"rho must lie in (0, 1), got {self.rho!r}")
        object.__setattr__(self, "size", whole_number(self.size, "size"))

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.lambda_0 * self.rho**i for i in range(1, self.size + 1))

    def with_anchor(self) -> tuple[float, ...]:
        """The full ladder including the anchor lam_0 at the front."""
        return (self.lambda_0,) + self.values


@dataclass(frozen=True)
class SelectionTrace:
    """Everything the quasi-optimality rule looked at, and what it chose.

    ``diffs[i]`` is the consecutive difference ending at
    ``grid.values[i]``; ``chosen_index`` indexes into ``grid.values``, and
    ``chosen_values`` is the ladder's row at that strength, the fitted
    values at the reference points.  ``at_boundary`` flags a choice on
    the first or last rung, where the rule's minimum may lie outside the
    ladder.
    """

    grid: LambdaGrid
    diffs: tuple[float, ...]
    chosen_index: int
    chosen_lambda: float
    chosen_values: np.ndarray

    @property
    def at_boundary(self) -> bool:
        return self.chosen_index in (0, self.grid.size - 1)


def _rms(arr: np.ndarray) -> float:
    """Root-mean-square norm, the (1/n)-weighted Euclidean norm, of a checked float array."""
    if arr.size == 0:
        raise InputError("the root-mean-square norm needs at least one entry")
    return math.sqrt(float(arr @ arr) / arr.size)


def choose_from_values(value_vectors) -> tuple[tuple[float, ...], int]:
    """Consecutive-difference minimization over a ladder of value vectors.

    ``value_vectors[0]`` is the anchor fit; returns the differences
    d_1..d_size and the 0-based index (into the post-anchor ladder) of
    the smallest one.  Ties resolve to the first, i.e. the larger
    strength.  Invariant under common positive rescaling of all vectors.
    """
    vectors = finite_array(value_vectors, "value vectors")
    if vectors.ndim != 2 or len(vectors) < 2:
        raise InputError("need the anchor fit plus at least one ladder fit, "
                         f"as rows of one array, got shape {vectors.shape}")
    diffs = tuple(_rms(step) for step in vectors[1:] - vectors[:-1])
    return diffs, int(np.argmin(diffs))


def quasi_optimality(gram: GramSystem, iterations: int,
                     grid: LambdaGrid | None = None) -> SelectionTrace:
    """Pick the regularization strength by the quasi-optimality rule.

    Fits the iterated scheme at every ladder strength (anchor included)
    from the eigensystem of ``gram``, minimizes the consecutive difference
    of fitted value vectors in the root-mean-square norm on the reference
    sample, and keeps the values at the chosen strength.
    """
    grid = LambdaGrid() if grid is None else grid
    values = fit_iterated_lavrentiev_ladder(gram, grid.with_anchor(), iterations)
    diffs, chosen = choose_from_values(values)
    return SelectionTrace(grid=grid, diffs=diffs, chosen_index=chosen,
                          chosen_lambda=grid.values[chosen],
                          chosen_values=values[chosen + 1])  # +1 skips the anchor


def lambda_mn(m: int, n: int, eta: float, varsigma: float) -> float:
    """A-priori strength (m**-0.5 + n**-0.5)**(1 / (eta + 1 - varsigma)).

    ``eta`` is the polynomial source-condition order (positive);
    ``varsigma`` the embedding index in [0, 1/2] (0 is allowed as the
    limiting no-embedding case).
    """
    m, n = whole_number(m, "m"), whole_number(n, "n")
    eta = positive_real(eta, "eta")
    varsigma = finite_real(varsigma, "varsigma")
    if not (0.0 <= varsigma <= 0.5):
        raise InputError(f"varsigma must lie in [0, 1/2], got {varsigma!r}")
    exponent = 1.0 / (eta + 1.0 - varsigma)
    return (m**-0.5 + n**-0.5) ** exponent
