"""Span tracing around the package's public entry points.

The tracer patches each traced function where its callers look it up and
restores every patch on exit, so the package itself carries no tracing
code.  Spans are kept in memory as ``[id, parent, name, start, end]``; a
span's self time is its duration minus the time its direct children cover
(the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.  ``on_return``,
        when given, is called as ``on_return(counters, args, result)`` to
        record counts at the same boundary."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, clock(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return traced

    def patch(self, name: str, targets, on_return=None) -> None:
        """Replace ``owner.attr`` for every ``(owner, attr)`` in ``targets``
        by one traced wrapper of the first target's current value."""
        owner, attr = targets[0]
        traced = self.wrap(name, getattr(owner, attr), on_return)
        for owner, attr in targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- aggregation -----------------------------------------------------

    def summary(self, root: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time, over
        the subtree of span ``root`` (every span when ``root`` is None)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        keep = self._subtree(root)
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1 in self.spans:
            if keep is not None and sid not in keep:
                continue
            agg = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            agg["n"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[sid]
        return out

    def _subtree(self, root: int | None) -> set[int] | None:
        if root is None:
            return None
        keep = {root}
        for sid, parent, *_ in self.spans[root + 1 :]:
            if parent in keep:
                keep.add(sid)
        return keep

    def duration(self, sid: int) -> float:
        _, _, _, t0, t1 = self.spans[sid]
        return t1 - t0

    def dump(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
            for sid, parent, name, t0, t1 in self.spans
        ]
