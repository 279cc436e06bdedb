"""Per-layer spans recorded from outside the package.

The modules of ``sparselin`` are the layers: ``data_io``, ``losses``,
``solvers``, ``sparse_core`` and ``cli``.  ``Tracer.install`` replaces
module attributes with timing wrappers, so every call that crosses into a
layer records a span: name, layer, start, end and the span that caused it.
Per-row calls (``predict``) are aggregated into one span per parent holding
a call count and the summed time.  An attribute that a later version of the
package no longer has is skipped, so its span shows zero calls instead of
crashing the run.  Spans live in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import sys
import time
import types
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("cli", "data_io", "losses", "solvers", "sparse_core")
NEST_TOL_S = 1e-9  # rounding allowed when child times are subtracted from a parent's

# (module, attribute, aggregate): the calls into each layer that are timed.
WRAPPED = (
    ("cli", "load_dataset", False),
    ("cli", "load_model", False),
    ("cli", "save_model", False),
    ("cli", "objective_value", False),
    ("cli", "predict", True),
    ("cli", "validate_labels", False),
    ("data_io", "write_model", False),
    ("solvers", "draw_indices", False),
    ("solvers", "validate_labels", False),
    ("solvers", "mean_vector", False),
    ("solvers", "squared_norm", False),
    ("solvers", "finalize_combine", False),
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    calls: int = 1
    busy: float = 0.0  # summed duration; end - start unless aggregated


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._aggregated: dict[tuple[int, str], int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, aggregate: bool):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        spans, stack, aggregated, clock = self.spans, self._stack, self._aggregated, time.perf_counter

        if aggregate:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    key = (stack[-1] if stack else -1, name)
                    i = aggregated.get(key)
                    if i is None:
                        i = aggregated[key] = len(spans)
                        spans.append(Span(name, layer, t0, parent=key[0], calls=0))
                    span = spans[i]
                    span.end = t1
                    span.calls += 1
                    span.busy += t1 - t0
        else:
            def wrapper(*args, **kwargs):
                span = Span(name, layer, 0.0, parent=stack[-1] if stack else -1)
                stack.append(len(spans))
                spans.append(span)
                span.start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    span.busy = span.end - span.start
                    stack.pop()

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        def replace(owner, key, fn, aggregate, setter):
            self._restore.append((owner, key, fn))
            setter(owner, key, self._wrap(fn, aggregate))

        for mod, attr, aggregate in WRAPPED:
            owner = self.modules[mod]
            fn = getattr(owner, attr, None)
            if callable(fn):
                replace(owner, attr, fn, aggregate, setattr)
        solvers = getattr(self.modules["cli"], "_SOLVERS", {})
        for algo, fn in list(solvers.items()):
            replace(solvers, algo, fn, False, dict.__setitem__)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, fn = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)

    def command(self, main, argv: list[str]) -> tuple[int, int, str]:
        """Run ``main(argv)`` under a root span; returns (span index, exit code, stdout)."""
        root = Span("cli.main", "cli", 0.0)
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(root)
        out = io.StringIO()
        root.start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = main(argv)
        finally:
            root.end = time.perf_counter()
            root.busy = root.end - root.start
            self._stack.pop()
        return index, rc, out.getvalue()

    def self_times(self) -> list[float]:
        """Each span's busy time minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.busy
        return [span.busy - c for span, c in zip(self.spans, child)]

    def check_nesting(self) -> None:
        """Raise ValueError unless every span lies inside its parent's [start, end]
        and no self time is negative beyond summation rounding, that is, unless
        each span was charged to the call that was running when it ran."""
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            if span.parent >= i:
                raise ValueError(f"span {i} {span.name} has parent {span.parent}, "
                                 "not an earlier span")
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if not parent.start <= span.start <= span.end <= parent.end:
                    raise ValueError(f"span {i} {span.name} [{span.start!r}, {span.end!r}] lies "
                                     f"outside its parent {parent.name} "
                                     f"[{parent.start!r}, {parent.end!r}]")
            if own < -NEST_TOL_S:
                raise ValueError(f"span {i} {span.name} has self time {own!r} s")

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def deep_size(root) -> int:
    """Bytes held by an object graph (sys.getsizeof over every reachable object)."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return total
