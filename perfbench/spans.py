"""In-memory spans recorded around calls into the program's public functions.

A span is [name, start, end, parent index, item id]. Spans are opened by
wrappers that the benchmark installs on module attributes for the length
of a traced run, so calls the program makes between its own public
functions are seen too. Nothing here touches the program's files.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # exact work counts
        self.calls: Counter = Counter()   # calls per wrapped function
        self.item = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``count(counts, result, *args)`` tallies its work."""
        key = fn.__name__

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls[key] += 1
            if count is not None:
                count(self.counts, result, *args)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name, count)`` targets, then restore them."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, count in targets:
                setattr(module, attr, self.wrap(getattr(module, attr), name, count))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def times(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds per span name.

        Self time is a span's duration minus the durations of its children.
        """
        inclusive, own = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            d = end - start
            inclusive[name] += d
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return inclusive, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
