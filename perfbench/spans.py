"""In-memory spans around the public entry points of each layer.

A traced sweep wraps ``repro.lowering.lower``, the ``predict`` of every
registered backend instance and ``CorpusEngine.run``.  Each call
records one span (name, start, end, parent) in nanoseconds; nothing is
written until the sweep ends.  A span's self time is its duration minus
the union of its children's intervals, so no interval is subtracted
twice, and the self times of all spans plus the time no span covers add
up to the sweep's wall time exactly (integer nanoseconds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1  #: index into the recorder's span list, -1 for a root
    info: dict[str, Any] = field(default_factory=dict)


class SpanRecorder:
    """Wraps the layer entry points and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable,
             before: Callable[[], Any] | None = None,
             after: Callable[..., None] | None = None) -> Callable:
        """``fn`` timed as span *name*.  ``before()`` runs ahead of the
        call and its value goes to ``after(span, state, args, result)``,
        which attaches counts to the span once the call returned."""

        def traced(*args, **kwargs):
            state = before() if before is not None else None
            span = Span(name, 0, parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(span, state, args, result)
            return result

        return traced

    def install(self) -> None:
        import repro.lowering
        from repro.backends import available_backends, get_backend
        from repro.engine import CorpusEngine

        # an unchanged memo length across the call means a memo hit
        orig_lower = repro.lowering.lower
        repro.lowering.lower = self.wrap(
            "lower", orig_lower, before=repro.lowering.memo_len,
            after=lambda span, n0, a, r: span.info.update(
                memo_hit=repro.lowering.memo_len() == n0),
        )
        self._undo.append(lambda: setattr(repro.lowering, "lower", orig_lower))

        for name in available_backends():
            inst = get_backend(name)
            inst.predict = self.wrap(name, inst.predict, after=_backend_info)
            self._undo.append(lambda inst=inst: vars(inst).pop("predict"))

        orig_run = CorpusEngine.run
        CorpusEngine.run = self.wrap(
            "engine", orig_run,
            after=lambda span, _, args, r: span.info.update(
                units=args[0].metrics.total_units,
                evaluated=args[0].metrics.evaluated),
        )
        self._undo.append(lambda: setattr(CorpusEngine, "run", orig_run))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _backend_info(span: Span, _state, _args, result) -> None:
    stats = result.stats
    if "fastpath_hit" in stats:
        span.info["analytical"] = bool(stats["fastpath_hit"])
    if "total_cycles" in stats:
        span.info["cycles"] = float(stats["total_cycles"])


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span], wall: tuple[int, int]) -> dict[str, Any]:
    """Self time per span name, the uncovered time, and nesting faults.

    ``wall`` is the sweep's ``(start, end)`` in the spans' clock.  A
    fault is a child outside its parent, siblings that overlap or a
    root outside the wall: each would count some time twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    faults = []
    for idx, s in enumerate(spans):
        lo, hi = wall if s.parent < 0 else (spans[s.parent].start, spans[s.parent].end)
        if not lo <= s.start <= s.end <= hi:
            faults.append(f"span {idx} ({s.name}) outside its parent")
    for parent, ivs in children.items():
        ivs.sort()
        if any(a[1] > b[0] for a, b in zip(ivs, ivs[1:])):
            faults.append(f"children of span {parent} overlap")
    self_ns: dict[str, int] = {}
    for idx, s in enumerate(spans):
        own = (s.end - s.start) - _union_ns(children.get(idx, []))
        self_ns[s.name] = self_ns.get(s.name, 0) + own
    uncovered = (wall[1] - wall[0]) - _union_ns(children.get(-1, []))
    return {"self_ns": self_ns, "uncovered_ns": uncovered, "faults": faults}
