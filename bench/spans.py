"""A span tracer that times calls into ratioreg from outside the package.

``Tracer.installed()`` wraps every public function of the package's
modules and rebinds the wrapper under every name the package holds it by
(``from .kernel import kernel_matrix`` makes a second binding that one
rebinding would miss).  It also wraps ``scipy.linalg.cho_factor``,
``scipy.linalg.cho_solve``, ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``; a call to one of those is named after the
module of the innermost package span around it, as in
``capacity.cho_solve``.  On exit every original binding is restored.

Each thread keeps its own span stack.  Finished spans are held in memory
and summarized (or written) after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("kernel", "regularization", "estimator", "selection", "capacity",
          "experiment", "cli")
LINALG = (("scipy.linalg", "cho_factor"), ("scipy.linalg", "cho_solve"),
          ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"))


def _rows(points) -> int:
    shape = np.shape(points)
    return 1 if not shape else shape[0]


def _factor_flops(args) -> float:
    n = np.shape(args[0])[0]
    return n**3 / 3.0


def _solve_flops(args) -> float:
    (factor, _lower), rhs = args[0], args[1]
    n = factor.shape[0]
    columns = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
    return 2.0 * n * n * columns


# Work a call does, computed from its positional arguments: kernel pairs
# evaluated, or the textbook flop count of a Cholesky factor or solve.
WORK = {
    "kernel.kernel_matrix": lambda args: float(_rows(args[1]) * _rows(args[2])),
    "cho_factor": _factor_flops,
    "cho_solve": _solve_flops,
}


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "work",
                 "mem_base", "mem_peak")

    def __init__(self, name, thread, parent, start=0.0, end=0.0, work=0.0):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = end
        self.work = work
        self.mem_base = None
        self.mem_peak = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per traced call.

    With ``track_memory`` each span also records the peak of
    ``tracemalloc``'s traced memory while it was open, above the level at
    its start.  tracemalloc must be running; its peak is process-wide, so
    allocations by other threads count too.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string, or a function of the enclosing span (or None)
        that returns the name.  ``work`` maps the positional arguments to a
        work count.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(name if isinstance(name, str) else name(parent),
                        threading.get_ident(), parent,
                        work=work(args) if work is not None else 0.0)
            if self.track_memory:
                self._memory_enter(span, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self.track_memory:
                    self._memory_exit(span, parent)
                with self._lock:
                    self.spans.append(span)
        return traced

    @staticmethod
    def _memory_enter(span: Span, parent: Span | None) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent.mem_peak = max(parent.mem_peak, peak)
        tracemalloc.reset_peak()
        span.mem_base = span.mem_peak = current

    @staticmethod
    def _memory_exit(span: Span, parent: Span | None) -> None:
        _, peak = tracemalloc.get_traced_memory()
        span.mem_peak = max(span.mem_peak, peak)
        if parent is not None:
            parent.mem_peak = max(parent.mem_peak, span.mem_peak)

    def _rebind(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"ratioreg.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, WORK.get(name)))
        package = [m for key, m in list(sys.modules.items())
                   if key == "ratioreg" or key.startswith("ratioreg.")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._rebind(module, attr, entry[1])
        for module_name, attr in LINALG:
            module = importlib.import_module(module_name)
            self._rebind(module, attr, self.wrap(_credited(attr), getattr(module, attr),
                                                 WORK.get(attr)))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _credited(attr: str):
    """Name a linear-algebra span after the module of the enclosing span."""
    def name(parent: Span | None) -> str:
        layer = parent.name.split(".", 1)[0] if parent is not None else "outside"
        return f"{layer}.{attr}"
    return name


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, work, peak bytes.

    A span's self time is its duration minus the durations of its direct
    children.  Children run on the parent's thread, so on each thread the
    self times add up to the durations of that thread's root spans.
    """
    children = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] += span.duration
    stats: dict[str, dict] = {}
    for span in spans:
        entry = stats.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "work": 0.0, "peak_bytes": 0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - children[id(span)]
        entry["work"] += span.work
        if span.mem_peak is not None:
            entry["peak_bytes"] = max(entry["peak_bytes"], span.mem_peak - span.mem_base)
    return stats


def thread_self_time(spans, thread: int) -> float:
    """Sum of the self times of the spans recorded on ``thread``."""
    return sum(entry["self_s"] for entry in
               summarize([s for s in spans if s.thread == thread]).values())


def busy_time_off_thread(spans, thread: int) -> float:
    """Time root spans were open on threads other than ``thread``."""
    return sum(s.duration for s in spans if s.parent is None and s.thread != thread)


def to_records(spans) -> list[list]:
    """Spans as JSON-ready rows: name, thread, start, end, parent row, work."""
    index = {id(span): row for row, span in enumerate(spans)}
    return [[s.name, s.thread, s.start, s.end,
             index.get(id(s.parent), -1) if s.parent is not None else -1, s.work]
            for s in spans]
