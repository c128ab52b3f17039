"""In-memory span tracer that times calls into a library from outside it.

A span records a name, its start and end (``time.perf_counter`` seconds) and
the index of the span that was open when it started.  Spans stay in memory
and are summarised once the traced run has ended.  A wrapped function keeps
its signature; the library itself is never edited.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._deferred: list = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside the span every other span descends from."""
        i = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def wrap_span(self, name: str, fn, on_call=None, on_result=None):
        """A span around every call of ``fn``.

        ``on_call(args)`` runs before the span opens and returns counts to
        add; ``on_result(result)`` is kept and runs after the traced run, so
        that counting work stays out of every span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                for key, value in on_call(args).items():
                    self.add(key, value)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                self._deferred.append((on_result, result))
            return result

        return traced

    def wrap_count(self, name: str, fn):
        """Count the calls of ``fn`` without opening a span (hot inner calls)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def finish(self) -> None:
        """Run the deferred result hooks; call once the root span has closed."""
        for hook, result in self._deferred:
            for key, value in hook(result).items():
                if key.endswith(".max"):
                    self.counts[key] = max(self.counts.get(key, 0), value)
                else:
                    self.add(key, value)
        self._deferred.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself, or a group of functions sharing one name,
        is not counted twice.
        """
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["self_s"] += own[i]
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row["calls"] += 1
                row["s"] += self.ends[i] - self.starts[i]
        return out

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
