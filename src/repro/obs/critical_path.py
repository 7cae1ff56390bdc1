"""Offline critical-path analysis of a span trace.

Given a root span, the analyzer walks its child spans *backwards* from
the root's end: at each cursor it picks the latest-ending child still
active, descends into it, and attributes any gap before the next child
to the parent's own work.  The resulting :class:`Segment` list tiles
``[root.start, root.end]`` exactly — segment durations sum to the
end-to-end time — so a report can truthfully say e.g.::

    cluster-migration 41.2s = 28.1s precopy + 9.0s dedup-lookup
                              + 3.2s stopcopy + 0.9s vine-reconfig

Attribution is by span name (:meth:`CriticalPathReport.by_name`) or by
any span attribute (:meth:`CriticalPathReport.by_attribute`, e.g.
``"phase"``); a segment whose span lacks the attribute inherits it from
the nearest ancestor that has it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Slop for float comparisons between child and parent boundaries.
EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    """One stretch of the critical path, attributed to ``span``."""

    span: object
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self):
        return (f"<Segment {self.span.name!r} "
                f"[{self.start:.6g}, {self.end:.6g}]>")


class CriticalPathReport:
    """The dominant chain through one trace, ready to aggregate."""

    def __init__(self, root, segments: List[Segment],
                 by_id: Dict[int, object]):
        self.root = root
        self.segments = segments
        self._by_id = by_id

    @property
    def total(self) -> float:
        """End-to-end time of the root span."""
        return self.root.end_time - self.root.start

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def path_duration(self) -> float:
        """Sum of segment durations (tiles the root's interval)."""
        return sum(seg.duration for seg in self.segments)

    # -- aggregation ---------------------------------------------------

    def by_name(self) -> Dict[str, float]:
        """Critical-path time per span name, descending."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.span.name] = totals.get(seg.span.name, 0.0) \
                + seg.duration
        return dict(sorted(totals.items(),
                           key=lambda kv: (-kv[1], kv[0])))

    def attribute_of(self, span, key: str, default: str):
        """``span``'s value for ``key``, inherited from the nearest
        ancestor when absent (transfer spans inherit their phase)."""
        current = span
        while current is not None:
            value = current.attributes.get(key)
            if value is not None:
                return value
            current = self._by_id.get(current.parent_id)
        return default

    def by_attribute(self, key: str,
                     default: str = "other") -> Dict[str, float]:
        """Critical-path time grouped by a span attribute (with
        ancestor fallback), descending."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            label = str(self.attribute_of(seg.span, key, default))
            totals[label] = totals.get(label, 0.0) + seg.duration
        return dict(sorted(totals.items(),
                           key=lambda kv: (-kv[1], kv[0])))

    def stack_of(self, span) -> List[str]:
        """Span names from the root down to ``span`` (the flame-graph
        stack for a segment attributed to it)."""
        names: List[str] = []
        current = span
        while current is not None:
            names.append(current.name)
            current = self._by_id.get(current.parent_id)
        names.reverse()
        return names

    def to_collapsed(self) -> str:
        """Collapsed-stack text (``flamegraph.pl`` input) of the
        critical path: one line per distinct root-to-span chain, value =
        the chain's critical-path microseconds.  Because segments tile
        the root exactly, the flame's total width is the end-to-end
        time."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            key = ";".join(self.stack_of(seg.span))
            totals[key] = totals.get(key, 0.0) + seg.duration
        lines = [f"{stack} {int(duration * 1e6)}"
                 for stack, duration in totals.items()]
        return "\n".join(sorted(lines)) + "\n" if lines else ""

    def format(self, key: Optional[str] = None, top: int = 8) -> str:
        """One-line human summary, largest contributors first."""
        parts = self.by_attribute(key) if key else self.by_name()
        shown = list(parts.items())[:top]
        terms = " + ".join(f"{dur:.3g}s {name}" for name, dur in shown)
        rest = len(parts) - len(shown)
        if rest > 0:
            terms += f" + ({rest} more)"
        return f"{self.root.name} {self.total:.4g}s = {terms}"


def _walk(span, upto: float, children: Dict[int, List],
          segments: List[Segment]) -> None:
    """Tile ``[span.start, min(span.end, upto)]`` with segments,
    appending them reverse-chronologically."""
    cursor = min(span.end_time, upto)
    while cursor > span.start + EPS:
        best = None
        best_key = None
        for child in children.get(span.span_id, ()):
            if child.end_time is None or child.start >= cursor - EPS:
                continue
            key = (min(child.end_time, cursor), child.start, child.span_id)
            if best is None or key > best_key:
                best, best_key = child, key
        if best is None:
            # No child overlaps what's left: the parent's own work.
            segments.append(Segment(span, span.start, cursor))
            return
        effective_end = min(best.end_time, cursor)
        if cursor - effective_end > EPS:
            segments.append(Segment(span, effective_end, cursor))
        _walk(best, effective_end, children, segments)
        cursor = max(span.start, best.start)


def critical_path(trace, root=None) -> CriticalPathReport:
    """Critical path of ``trace`` (a :class:`~repro.obs.Tracer` or any
    iterable of spans), rooted at ``root`` — by default the finished
    parentless span with the longest duration."""
    spans = list(getattr(trace, "spans", trace))
    by_id = {s.span_id: s for s in spans}
    children: Dict[int, List] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    if root is None:
        finished_roots = [s for s in spans
                          if s.parent_id is None and s.end_time is not None]
        if not finished_roots:
            raise ValueError("trace has no finished root span")
        root = max(finished_roots,
                   key=lambda s: (s.end_time - s.start, -s.span_id))
    if root.end_time is None:
        raise ValueError(f"root span {root.name!r} has not ended")
    segments: List[Segment] = []
    _walk(root, root.end_time, children, segments)
    segments.reverse()
    return CriticalPathReport(root, segments, by_id)
