"""Causal tracing over the simulation clock.

A :class:`Tracer` produces nested, causally linked :class:`Span` records
— the simulation-time analogue of OpenTelemetry spans.  Every span
carries a ``trace_id`` (the root span's id), its own ``span_id``, its
``parent_id``, free-form attributes, point-in-time events, and *links*
to spans in other causal chains (e.g. the transfer that unblocked this
one).  Exporters (:mod:`repro.obs.export`) turn the span list into a
Perfetto-loadable Chrome trace or a structured JSONL log;
:mod:`repro.obs.critical_path` walks the causality to attribute
end-to-end time.

Design constraints, both load-bearing:

* **Zero cost when disabled.**  Instrumented modules never construct a
  tracer; they look one up with :func:`tracer_of`, which returns the
  module-level :data:`NULL_TRACER` unless :meth:`Tracer.install` has
  attached a real one to the simulator.  The null tracer hands out the
  :data:`NULL_SPAN` singleton whose every method is a no-op, so the
  instrumented hot paths add one attribute lookup and nothing else.
* **Determinism.**  Span ids come from one seeded monotonic counter and
  every timestamp is ``sim.now`` — never wall clock — so same-seed runs
  produce byte-identical span logs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple


class SpanContext(NamedTuple):
    """The propagatable identity of a span (what crosses process
    boundaries when the span object itself should not)."""

    trace_id: Optional[int]
    span_id: Optional[int]
    track: Optional[str] = None


class Span:
    """One timed operation in a trace.

    Usable as a context manager (ends with status ``"error"`` if the
    body raises) or via an explicit, idempotent :meth:`end`.
    """

    __slots__ = ("_sim", "trace_id", "span_id", "parent_id",
                 "name", "track", "start", "end_time", "status",
                 "attributes", "events", "links")

    def __init__(self, sim, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, track: str,
                 attributes: Dict[str, Any]):
        self._sim = sim
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        # Direct clock-attribute reads (here, in event() and in end())
        # skip the property descriptor on the span hot path.
        self.start: float = sim._now
        self.end_time: Optional[float] = None
        self.status: str = "ok"
        self.attributes = attributes
        # Most spans never get an event or a link: both start as the
        # shared empty tuple and become lists on the first append.
        #: ``(time, name, attributes)`` point-in-time annotations.
        self.events: Sequence[Tuple[float, str, Dict[str, Any]]] = ()
        #: Span ids of causally related spans in *other* chains.
        self.links: Sequence[int] = ()

    # -- identity ------------------------------------------------------

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.track)

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end_time - self.start

    # -- mutation ------------------------------------------------------

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; returns self."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes) -> "Span":
        """Record a point-in-time event at ``sim.now``."""
        entry = (self._sim._now, name, attributes)
        if self.events:
            self.events.append(entry)
        else:
            self.events = [entry]
        return self

    def link(self, other) -> "Span":
        """Link a causally related span (or its context) from another
        chain — rendered as a flow arrow in Perfetto."""
        span_id = getattr(other, "span_id", None)
        if span_id is not None:
            if self.links:
                self.links.append(span_id)
            else:
                self.links = [span_id]
        return self

    def end(self, status: Optional[str] = None) -> "Span":
        """Close the span at ``sim.now``.  Idempotent: only the first
        call sets the end time and status."""
        if self.end_time is None:
            self.end_time = self._sim._now
            if status is not None:
                self.status = status
        return self

    def end_on(self, event, status: str = "ok",
               fail_status: str = "cancelled") -> "Span":
        """End this span when a simkernel event is processed (e.g. a
        flow's ``done``), with ``fail_status`` if the event failed."""
        def _close(ev):
            self.end(status if ev.ok is not False else fail_status)

        if event.callbacks is None:  # already processed
            _close(event)
        else:
            event.callbacks.append(_close)
        return self

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end("error" if exc_type is not None else None)
        return False

    def __repr__(self):
        end = f"{self.end_time:.6g}" if self.end_time is not None else "…"
        return (f"<Span {self.name!r} #{self.span_id} "
                f"[{self.start:.6g}, {end}] {self.status}>")


class _NullSpan:
    """The do-nothing span: every mutator returns self, truthiness is
    False so ``span or fallback`` reads naturally."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    track = None
    start = 0.0
    end_time = None
    status = "ok"
    attributes: Dict[str, Any] = {}
    events: Tuple = ()
    links: Tuple = ()
    finished = False
    context = SpanContext(None, None, None)

    def set(self, **attributes):
        return self

    def event(self, name, **attributes):
        return self

    def link(self, other):
        return self

    def end(self, status=None):
        return self

    def end_on(self, event, status="ok", fail_status="cancelled"):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __bool__(self):
        return False

    def __repr__(self):
        return "<NullSpan>"


#: The shared no-op span handed out by the null tracer.
NULL_SPAN = _NullSpan()


class Tracer:
    """Factory and registry of spans for one simulation.

    Every span ever started lives in :attr:`spans`, in creation order,
    for the whole run: exporters and :func:`~repro.obs.critical_path`
    read it in full.
    """

    #: Real tracers record; instrumentation may branch on this to skip
    #: building expensive attributes.
    enabled = True

    def __init__(self, sim, seed: int = 1):
        self.sim = sim
        self._ids = itertools.count(seed)
        self._spans: List[Span] = []

    def install(self) -> "Tracer":
        """Make this the simulator's tracer (what :func:`tracer_of`
        finds); returns self for chaining."""
        self.sim._tracer = self
        return self

    def start(self, name: str, parent=None, track: Optional[str] = None,
              links=(), **attributes) -> Span:
        """Open a span.

        ``parent`` is a :class:`Span`, :class:`SpanContext`, or None
        (``NULL_SPAN`` counts as None, so instrumentation can pass
        whatever it was handed).  ``track`` names the horizontal lane
        the span renders on; children inherit their parent's lane by
        default.
        """
        parent_id = getattr(parent, "span_id", None)
        span_id = next(self._ids)
        if parent_id is None:
            trace_id = span_id
        else:
            trace_id = parent.trace_id
            if track is None:
                track = getattr(parent, "track", None)
        span = Span(self.sim, trace_id, span_id, parent_id, name,
                    track if track is not None else "main",
                    dict(attributes))
        for other in links:
            span.link(other)
        self._spans.append(span)
        return span

    #: Alias so ``with tracer.span("phase"):`` reads well.
    span = start

    # -- views ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every span started so far, in creation order."""
        return self._spans

    def finished_spans(self) -> List[Span]:
        return [s for s in self._spans if s.end_time is not None]

    def stats(self) -> dict:
        """Span accounting: spans started, and the most held in memory
        at once — the same number, as no span is ever released."""
        n = len(self._spans)
        return {"started": n, "resident_peak": n}

    # -- export / analysis (delegation keeps call sites short) ---------

    def to_chrome_trace(self) -> dict:
        from .export import to_chrome_trace
        return to_chrome_trace(self._spans)

    def to_jsonl(self) -> str:
        from .export import spans_to_jsonl
        return spans_to_jsonl(self._spans)

    def dump_chrome_trace(self, path) -> None:
        from .export import dump_chrome_trace
        dump_chrome_trace(self._spans, path)

    def dump_jsonl(self, path) -> None:
        from .export import dump_jsonl
        dump_jsonl(self._spans, path)

    def critical_path(self, root=None):
        from .critical_path import critical_path
        return critical_path(self._spans, root=root)

    def __repr__(self):
        return f"<Tracer spans={len(self._spans)}>"


class NullTracer:
    """The disabled tracer: hands out :data:`NULL_SPAN`, records
    nothing.  This is what every simulation without an installed tracer
    sees, keeping instrumentation zero-cost."""

    enabled = False
    spans: Tuple = ()

    def start(self, name, parent=None, track=None, links=(), **attributes):
        return NULL_SPAN

    span = start

    def finished_spans(self):
        return []

    def __repr__(self):
        return "<NullTracer>"


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


def tracer_of(sim) -> Tracer:
    """The simulator's installed tracer, or :data:`NULL_TRACER`.

    This is the lookup every instrumented module performs per
    operation — a single ``getattr`` when tracing is off.
    """
    return getattr(sim, "_tracer", NULL_TRACER)
