from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ratioreg as rr
from ratioreg import estimator, kernel

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def default_kernel() -> rr.KernelSpec:
    return rr.KernelSpec()


@pytest.fixture(scope="session")
def small_pair(default_kernel):
    """A fixed (xp, xq, gram) triple, n=30 / m=25, for fast estimator tests."""
    xp = rr.sample_normal(2.0, 5.0, 30, 101, "p")
    xq = rr.sample_normal(3.0, 0.5, 25, 202, "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    return xp, xq, gram


@pytest.fixture(scope="session")
def benchmark_pair(default_kernel):
    """A full-sized (n=m=100) instance with frozen seeds, mu_q = 3."""
    xp = rr.sample_normal(2.0, 5.0, 100, 1234, "p")
    xq = rr.sample_normal(3.0, 0.5, 100, 5678, "q")
    gram = rr.assemble_gram(default_kernel, xp, xq)
    return xp, xq, gram


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(424242))


@pytest.fixture()
def dense_twin(monkeypatch):
    """Make a copy of a GramSystem that is decomposed by the dense ``eigh`` of K/n.

    ``dense_twin(gram, k_matrix=None, **changes)`` replaces the ``changes``
    (``f_bar``, say) and decomposes the copy at once, through the library's
    own dense fallback: ``kernel._PIVOT_CAP`` is 0 for that call alone.
    Without ``k_matrix`` the copy is the dense reference for ``gram``.  With
    it, the copy is a fault: for the rest of the test ``k_matrix`` stands in
    for K on the copy, in its decomposition and in the Cholesky fit alike.
    ``GramSystem.dense`` returns a fresh Fortran-order copy of it, and
    ``GramSystem.packed`` that copy shifted and packed by LAPACK's ``dtrttf``.
    """
    def make(gram, k_matrix=None, **changes):
        twin = dataclasses.replace(gram, **changes)
        if k_matrix is not None:
            injected = np.array(k_matrix, dtype=float)
            real_dense, real_packed = kernel.GramSystem.dense, kernel.GramSystem.packed

            def packed(self, shift):
                if self is not twin:
                    return real_packed(self, shift)
                rfp, _ = scipy.linalg.lapack.dtrttf(self.dense() + shift * np.eye(self.n),
                                                    transr="N", uplo="L")
                return rfp.reshape(-1, -(-self.n // 2), order="F")

            monkeypatch.setattr(kernel.GramSystem, "dense", lambda self: (
                np.array(injected, order="F") if self is twin else real_dense(self)))
            monkeypatch.setattr(kernel.GramSystem, "packed", packed)
        with monkeypatch.context() as scoped:
            scoped.setattr(kernel, "_PIVOT_CAP", 0)
            twin.eigensystem
        return twin

    return make


@pytest.fixture()
def linalg_calls(monkeypatch) -> list[str]:
    """Names of the dense decompositions, packed Cholesky factors and solves called, in order.

    The LAPACK routines are wrapped on the module the fit takes them from,
    ``estimator._lapack()``.
    """
    calls: list[str] = []
    for module, names in ((np.linalg, ("eigh", "eigvalsh")),
                          (estimator._lapack(), ("dpftrf", "dpftrs"))):
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def subprocess_env() -> dict[str, str]:
    """Environment for ``python -m ratioreg`` children, from any working directory.

    The absolute ``src`` path goes first on PYTHONPATH, so a relative entry
    inherited from the parent (``PYTHONPATH=src``) no longer matters.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env
