"""Per-layer spans for the benchmark, recorded from outside the package.

A traced pass rebinds the public names that each consuming module
imported (for example `fdomlab.fdom.min_weight_dominating_set`, through
which `fdom_colgen` prices) to wrappers that record a span per call, and
restores them afterwards.  Nothing inside `fdomlab` is edited and no
private name is touched.  Spans nest: a span's self time is its duration
minus the time of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator, Optional


class Tracer:
    """Span totals for one traced pass, keyed by span name."""

    def __init__(self) -> None:
        self.total = defaultdict(float)   # outermost spans of each name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)    # counts recorded at span boundaries
        self.maxima = defaultdict(int)
        self._stack: list[list] = []      # [name, child seconds]
        self._depth = defaultdict(int)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_time[name] += dt - frame[1]
            if self._depth[name] == 0:
                self.total[name] += dt
            if self._stack:
                self._stack[-1][1] += dt

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call; for a generator function,
        one span per item drawn, so only time spent inside it counts."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    if on_result is not None:
                        on_result(self, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper


@contextmanager
def traced(tracer: Tracer, bindings: list[tuple[ModuleType, str, str, Optional[Callable]]]
           ) -> Iterator[list[str]]:
    """Rebind each (module, imported name) to a traced wrapper for the
    duration of the block.  Yields the bindings that were missing, as
    `module.name` strings, so that the caller can report them."""
    saved, missing = [], []
    try:
        for module, attr, span_name, on_result in bindings:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, span_name, on_result))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
