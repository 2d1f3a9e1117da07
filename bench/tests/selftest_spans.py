"""Tests of the span tracer.

Run with ``python3 -m pytest bench/tests/selftest_*.py``; the file names keep
them out of the package's own test run.
"""

from __future__ import annotations

import importlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import LINALG, Span, Tracer, summarize, thread_self_time  # noqa: E402


def test_self_time_is_total_minus_children():
    root = Span("cli.main", 1, None, 0.0, 10.0)
    first = Span("kernel.assemble_gram", 1, root, 1.0, 4.0)
    second = Span("estimator.fit", 1, root, 5.0, 9.0)
    leaf = Span("estimator.cho_factor", 1, second, 6.0, 7.0)
    stats = summarize([leaf, first, second, root])
    assert stats["cli.main"]["self_s"] == pytest.approx(3.0)
    assert stats["cli.main"]["total_s"] == pytest.approx(10.0)
    assert stats["kernel.assemble_gram"]["self_s"] == pytest.approx(3.0)
    assert stats["estimator.fit"]["self_s"] == pytest.approx(3.0)
    assert stats["estimator.cho_factor"]["self_s"] == pytest.approx(1.0)
    assert thread_self_time([leaf, first, second, root], 1) == pytest.approx(10.0)


def test_span_stacks_are_per_thread_under_a_two_worker_pool():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("demo.inner", inner)

    def outer(x):
        both_inside.wait()  # both workers hold an open outer span
        return traced_inner(x)

    traced_outer = tracer.wrap("demo.outer", outer)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(traced_outer, [1, 2])) == [2, 3]

    outers = [s for s in tracer.spans if s.name == "demo.outer"]
    inners = [s for s in tracer.spans if s.name == "demo.inner"]
    assert len(outers) == 2 and len(inners) == 2
    assert outers[0].thread != outers[1].thread
    assert all(s.parent is None for s in outers)
    for span in inners:
        assert span.parent in outers
        assert span.parent.thread == span.thread


def _bindings():
    modules = [m for key, m in list(sys.modules.items())
               if key == "ratioreg" or key.startswith("ratioreg.")]
    modules += [importlib.import_module(name) for name, _ in LINALG]
    return {(module.__name__, attr): value for module in modules
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_restores_the_original_functions(tmp_path):
    import numpy as np

    import ratioreg.cli as cli
    import ratioreg.estimator as estimator
    import ratioreg.kernel as kernel

    points = tmp_path / "xp.csv"
    points.write_text("".join(f"{float(v)!r}\n" for v in np.linspace(-2.0, 4.0, 40)))
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert kernel.kernel_matrix is not before[("ratioreg.kernel", "kernel_matrix")]
        assert estimator.kernel_matrix is kernel.kernel_matrix
        code = cli.main(["capacity", "--xp", str(points), "--out",
                         str(tmp_path / "profile.csv"), "--num-lambdas", "3"])
    assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {span.name for span in tracer.spans}
    assert {"cli.main", "capacity.capacity_profile", "capacity.cho_factor",
            "capacity.cho_solve", "capacity.eigvalsh", "kernel.eval_kernel"} <= names
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert thread_self_time(tracer.spans, roots[0].thread) == pytest.approx(
        roots[0].duration, rel=1e-9)
