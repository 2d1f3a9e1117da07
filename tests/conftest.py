from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import ratioreg as rr

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


@pytest.fixture(scope="session")
def subprocess_env() -> dict[str, str]:
    """Environment for ``python -m ratioreg`` children, from any working directory.

    The absolute ``src`` path goes first on PYTHONPATH, so a relative entry
    inherited from the parent (``PYTHONPATH=src``) no longer matters.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env
