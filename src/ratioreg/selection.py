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
holder of the kernel and both samples, and all the fits share one
eigensystem of K/n, r eigenpairs from a pivoted Cholesky factor (see
``kernel.GramSystem.eigensystem``): the whole ladder costs that factor
plus one (L |k| x r) @ (r x n) product and O(n r) memory, and never forms
the n x n kernel matrix (see ``estimator.fit_iterated_lavrentiev_ladder``).

The a-priori strength for sample sizes (m, n) under a polynomial source
condition of order eta and an embedding index varsigma is

    lam = (m**-0.5 + n**-0.5) ** (1 / (eta + 1 - varsigma)),

the balance point of the corresponding bias and variance terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, finite_real, positive_real, require_keys, whole_number
from .estimator import RatioModel, fit_iterated_lavrentiev_ladder
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
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lambda_0", positive_real(self.lambda_0, "lambda_0"))
        object.__setattr__(self, "rho", positive_real(self.rho, "rho"))
        if not self.rho < 1.0:
            raise InputError(f"rho must lie in (0, 1), got {self.rho!r}")
        object.__setattr__(self, "size", whole_number(self.size, "size"))
        object.__setattr__(self, "values", tuple(
            self.lambda_0 * self.rho**i for i in range(1, self.size + 1)))

    def with_anchor(self) -> tuple[float, ...]:
        """The full ladder including the anchor lam_0 at the front."""
        return (self.lambda_0,) + self.values

    def to_dict(self) -> dict:
        return {"lambda_0": self.lambda_0, "rho": self.rho, "size": self.size}

    @staticmethod
    def from_dict(data: dict) -> "LambdaGrid":
        require_keys(data, ("lambda_0", "rho", "size"), "grid")
        return LambdaGrid(lambda_0=data["lambda_0"], rho=data["rho"],
                          size=data["size"])


@dataclass(frozen=True)
class SelectionTrace:
    """Everything the quasi-optimality rule looked at.

    ``diffs[i]`` is the consecutive difference ending at
    ``grid.values[i]``; ``chosen_index`` indexes into ``grid.values``.
    ``models`` (optional) retains the fit at every ladder strength,
    anchor first.  ``at_boundary`` flags a choice on the first or last
    rung, where the rule's minimum may lie outside the ladder.
    """

    grid: LambdaGrid
    diffs: tuple[float, ...]
    chosen_index: int
    chosen_lambda: float
    models: tuple[RatioModel, ...] | None = None

    @property
    def chosen_model(self) -> RatioModel | None:
        if self.models is None:
            return None
        return self.models[self.chosen_index + 1]  # skip the anchor

    @property
    def at_boundary(self) -> bool:
        return self.chosen_index in (0, self.grid.size - 1)


def rms_norm(vector: np.ndarray) -> float:
    """Root-mean-square norm, the (1/n)-weighted Euclidean norm."""
    arr = np.asarray(vector, dtype=float)
    return math.sqrt(float(arr @ arr) / arr.size)


def choose_from_values(value_vectors) -> tuple[tuple[float, ...], int]:
    """Consecutive-difference minimization over a ladder of value vectors.

    ``value_vectors[0]`` is the anchor fit; returns the differences
    d_1..d_size and the 0-based index (into the post-anchor ladder) of
    the smallest one.  Ties resolve to the first, i.e. the larger
    strength.  Invariant under common positive rescaling of all vectors.
    """
    vectors = [np.asarray(v, dtype=float) for v in value_vectors]
    if len(vectors) < 2:
        raise InputError("need the anchor fit plus at least one ladder fit")
    diffs = tuple(rms_norm(vectors[i] - vectors[i - 1])
                  for i in range(1, len(vectors)))
    return diffs, int(np.argmin(diffs))


def quasi_optimality(gram: GramSystem, iterations: int, grid: LambdaGrid | None = None,
                     keep_models: bool = False) -> SelectionTrace:
    """Pick the regularization strength by the quasi-optimality rule.

    Fits the iterated scheme at every ladder strength (anchor included)
    from one eigensystem of ``gram`` and minimizes the consecutive
    difference of fitted value vectors in the root-mean-square norm on
    the reference sample.
    """
    grid = LambdaGrid() if grid is None else grid
    ladder = fit_iterated_lavrentiev_ladder(gram, grid.with_anchor(), [iterations])
    diffs, chosen = choose_from_values(ladder.values[iterations])
    models = None
    if keep_models:
        models = tuple(ladder.model(i, iterations) for i in range(len(ladder.lambdas)))
    return SelectionTrace(grid=grid, diffs=diffs, chosen_index=chosen,
                          chosen_lambda=grid.values[chosen], models=models)


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
