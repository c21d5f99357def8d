"""In-memory span tracer that wraps functions from outside the program.

Each wrapped call records a span: name, start, end, the index of the span
that was open when it started (its parent, -1 at the top) and the unit of
work it belongs to. Spans stay in memory until the caller writes them.
Standard library only.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    unit: str


class Tracer:
    """Counts every call of the wrapped functions and records a span for
    each call of those not marked count-only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.calls: Counter[str] = Counter()
        self._stack: list[int] = []
        self._units: list[str] = [""]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count_only: bool = False, unit_of=None, observe=None):
        """A wrapper around ``fn`` that traces each call as ``name``.

        ``unit_of(args)`` names the unit of work the call starts; spans
        inside it inherit that unit. ``observe(args)`` sees every call.
        """
        tracer = self

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if observe is not None:
                observe(args)
            unit = unit_of(args) if unit_of is not None else tracer._units[-1]
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._units.append(unit)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._units.pop()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, unit)

        return traced

    def patch(self, name: str, sites: list[str], **wrap_kwargs) -> None:
        """Replace the function at every lookup site with one wrapper.

        A site is ``"module:attr"`` or ``"module:Class.attr"``. All sites
        must hold the same function object, so a call through any of them
        is traced; a missing or diverging site raises.
        """
        targets = []
        for site in sites:
            module_name, _, path = site.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                raise LookupError(f"trace site {site} does not exist")
            targets.append((owner, attr, getattr(owner, attr)))
        original = targets[0][2]
        for (owner, attr, fn), site in zip(targets, sites):
            if fn is not original:
                raise LookupError(f"trace site {site} is not the same function as {sites[0]}")
        wrapper = self.wrap(name, original, **wrap_kwargs)
        for owner, attr, fn in targets:
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, fn))

    def unpatch(self) -> None:
        """Restore every patched site."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "unit"])
            writer.writerows(self.finished_spans())


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span], calls: Counter) -> dict[str, dict[str, float]]:
    """Per name: calls, total self seconds and median microseconds per call."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        by_name[span.name].append((span.end - span.start, self_s))
    out = {}
    for name, n in calls.items():
        rows = by_name.get(name, [])
        out[name] = {
            "calls": n,
            "self_s": sum(s for _, s in rows),
            "us_per_call": statistics.median(d for d, _ in rows) * 1e6 if rows else None,
        }
    return out
