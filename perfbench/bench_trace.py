"""In-memory span tracer that wraps smoothrq's public functions from outside.

Each wrapped function is replaced, for the duration of a traced block, by a
wrapper installed under the exact module attribute its caller looks it up by
(``smoothrq.estimators.solve_lp_simplex`` rather than
``smoothrq.optim.solve_lp_simplex``, because estimators imported the name).
A wrapper records one span per call: name, parent span, start, end, and
counts read off the return value.  Spans stay in memory; the caller writes
them out when the benchmark ends.  The originals are restored when the block
exits, also on error.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

UNOBSERVED = -1.0  # value reported for a layer whose functions were never called


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


class Tracer:
    """Collects spans from wrappers installed by ``patched``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (for example one request)."""
        sp = Span(name, self._stack[-1] if self._stack else -1, self._clock())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self._clock()

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped to record a span per call; count(args, kwargs, result) -> dict."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            sp = Span(name, stack[-1] if stack else -1, clock())
            spans.append(sp)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                sp.end = clock()
            if count is not None:
                sp.counts = count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, points):
        """Install wrappers for (module, attribute, span name, count) points."""
        saved = []
        try:
            for module, attr, name, count in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_spans(spans: list[Span], path: Path) -> None:
    """Dump spans with their self time, one per line, in call order."""
    t0 = spans[0].start if spans else 0.0
    lines = ["id\tparent\tname\tstart_s\tend_s\tself_s\tcounts"]
    for i, (sp, own) in enumerate(zip(spans, self_times(spans))):
        counts = ",".join(f"{k}={v}" for k, v in sorted(sp.counts.items()))
        lines.append(f"{i}\t{sp.parent}\t{sp.name}\t{sp.start - t0:.9f}\t"
                     f"{sp.end - t0:.9f}\t{own:.9f}\t{counts}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
