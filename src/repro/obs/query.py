"""Cross-signal "explain this alert" queries.

The observability spine records four signal families — metric series
(:class:`~repro.metrics.MetricsRecorder`), spans
(:class:`~repro.obs.trace.Tracer`), control-plane state transitions
(:class:`~repro.controlplane.eventlog.EventLog`), and kernel health
(:func:`~repro.obs.profile.kernel_stats`).  Each is useful alone; an
on-call engineer needs them *joined*: an SLO alert fired, **why**?

:func:`explain` performs that join deterministically, with no
wall-clock input:

1. The **alert window** is derived from the episode itself —
   ``[pending_at - objective.window, resolved_at (or now)]`` — i.e.
   every instant whose samples could have contributed to the breaching
   aggregate.
2. The objective's backing series (and ``good_series``) are read for
   their **exemplars** (trace-linked observations captured by
   :meth:`~repro.metrics.MetricsRecorder.exemplar_scope`) inside the
   window.
3. Each exemplar's **trace** is pulled from the tracer's span list
   (one pass) and its finished root gets a
   :func:`~repro.obs.critical_path.critical_path` breakdown.
4. The **eventlog transitions** inside the window are attached, both
   as a (kind, to) census and as the raw head of the window.
5. A **kernel-stats** snapshot rounds out the picture.

The result is an :class:`ExplainReport`: ``to_dict()`` for the
dashboard drill-down panel and JSON artifacts, ``to_markdown()`` for
humans and CI job summaries.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .critical_path import critical_path
from .trace import tracer_of

#: Raw transitions attached to a report (the census always covers the
#: full window; the raw list is a capped head for eyeballing).
MAX_RAW_TRANSITIONS = 50


def alert_window(alert, now: Optional[float] = None) -> Tuple[float, float]:
    """The time span that can explain ``alert``: from one objective
    window before the violation was first seen, to resolution (or
    ``now`` for open alerts)."""
    start = max(0.0, alert.pending_at - alert.objective.window)
    end = alert.resolved_at if alert.resolved_at is not None else now
    if end is None:
        end = alert.pending_at
    return start, max(start, end)


class ExplainReport:
    """One assembled answer to "why did this alert happen?"."""

    def __init__(self, alert, window: Tuple[float, float],
                 exemplars: List[dict], traces: List[dict],
                 transitions: List[dict],
                 transition_census: Dict[str, int],
                 kernel: Optional[dict]):
        self.alert = alert
        self.window = window
        self.exemplars = exemplars
        self.traces = traces
        self.transitions = transitions
        self.transition_census = transition_census
        self.kernel = kernel

    def to_dict(self) -> dict:
        return {
            "schema": "repro.explain/1",
            "alert": self.alert.to_dict(),
            "objective": {
                "name": self.alert.objective.name,
                "series": self.alert.objective.series,
                "good_series": self.alert.objective.good_series,
                "aggregate": self.alert.objective.aggregate,
                "op": self.alert.objective.op,
                "threshold": self.alert.objective.threshold,
                "window": self.alert.objective.window,
            },
            "window": {"start": self.window[0], "end": self.window[1]},
            "exemplars": self.exemplars,
            "traces": self.traces,
            "transitions": self.transitions,
            "transition_census": self.transition_census,
            "kernel": self.kernel,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        alert = self.alert
        obj = alert.objective
        lines = [
            f"# Explain: alert `{obj.name}`",
            "",
            f"* state **{alert.state}** — pending at {alert.pending_at:g}"
            + (f", fired at {alert.fired_at:g}"
               if alert.fired_at is not None else "")
            + (f", resolved at {alert.resolved_at:g}"
               if alert.resolved_at is not None else ""),
            f"* objective: `{obj.aggregate}({obj.series})` {obj.op} "
            f"{obj.threshold:g} over {obj.window:g}s"
            + (f" (good: `{obj.good_series}`)" if obj.good_series else ""),
            f"* last value: "
            + (f"{alert.value:g}" if alert.value is not None else "–"),
            f"* window examined: [{self.window[0]:g}, {self.window[1]:g}]",
            "",
            "## Exemplar traces",
        ]
        if not self.traces:
            lines.append("")
            lines.append("_No exemplar traces retained in the window._")
        for trace in self.traces:
            lines.append("")
            lines.append(
                f"### trace {trace['trace_id']} — `{trace['root']}` "
                f"({trace['status']})")
            lines.append(
                f"* {trace['span_count']} span(s), "
                f"[{trace['start']:g}, {trace['end']:g}]")
            if trace.get("critical_path"):
                lines.append("* critical path: "
                             + trace["critical_path"]["format"])
        lines += ["", "## Control-plane transitions in window", ""]
        if self.transition_census:
            for key, count in sorted(self.transition_census.items()):
                lines.append(f"* `{key}` × {count}")
        else:
            lines.append("_No transitions recorded in the window._")
        if self.kernel:
            lines += ["", "## Kernel", ""]
            lines.append("* " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.kernel.items())
                if not isinstance(v, (dict, list))))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"<ExplainReport {self.alert.objective.name!r} "
                f"traces={len(self.traces)} "
                f"transitions={sum(self.transition_census.values())}>")


def _trace_summary(trace_id, spans: List) -> dict:
    """JSON-ready digest of one retained trace: identity, bounds, and
    the critical-path breakdown when the root finished."""
    finished = [s for s in spans if s.end_time is not None]
    root = next((s for s in spans if s.span_id == s.trace_id), None)
    start = min(s.start for s in spans)
    end = max((s.end_time for s in finished), default=start)
    status = "ok"
    for s in spans:
        if s.status != "ok":
            status = s.status
            break
    summary = {
        "trace_id": trace_id,
        "root": root.name if root is not None else spans[0].name,
        "status": status,
        "span_count": len(spans),
        "start": start,
        "end": end,
        "critical_path": None,
    }
    if root is not None and root.end_time is not None:
        report = critical_path(spans, root=root)
        summary["critical_path"] = {
            "total": report.total,
            "by_name": report.by_name(),
            "format": report.format(),
        }
    return summary


def explain(alert, metrics, tracer=None, eventlog=None,
            max_traces: int = 5) -> ExplainReport:
    """Assemble the cross-signal story behind ``alert``.

    ``metrics`` is the :class:`~repro.metrics.MetricsRecorder` the SLO
    engine evaluated (its simulator anchors discovery); ``tracer`` and
    ``eventlog`` default to whatever is installed on that simulator.
    Span collection is one pass over
    :attr:`~repro.obs.trace.Tracer.spans`.
    """
    from .profile import kernel_stats

    sim = metrics.sim
    if tracer is None:
        tracer = tracer_of(sim)
    if eventlog is None:
        from ..controlplane.eventlog import eventlog_of
        eventlog = eventlog_of(sim)
    start, end = window = alert_window(alert, now=sim.now)

    # 1. Exemplars of the alerting series, inside the window.
    exemplars: List[dict] = []
    get_exemplars = getattr(metrics, "exemplars", None)
    if get_exemplars is not None:
        obj = alert.objective
        for series in dict.fromkeys(
                s for s in (obj.series, obj.good_series) if s is not None):
            for ex in get_exemplars(series):
                if start <= ex.time <= end:
                    doc = ex.to_dict()
                    doc["series"] = series
                    exemplars.append(doc)
    exemplars.sort(key=lambda d: (d["time"], d["trace_id"], d["series"]))

    # 2. Their traces, newest exemplar first, capped.
    wanted: List[int] = []
    for doc in reversed(exemplars):
        tid = doc["trace_id"]
        if tid not in wanted:
            wanted.append(tid)
        if len(wanted) >= max_traces:
            break
    by_trace: Dict[int, List] = {tid: [] for tid in wanted}
    if wanted:
        for span in tracer.spans:
            bucket = by_trace.get(span.trace_id)
            if bucket is not None:
                bucket.append(span)
    traces = [_trace_summary(tid, spans)
              for tid, spans in by_trace.items() if spans]

    # 3. Eventlog transitions inside the window.
    census: Dict[str, int] = {}
    raw: List[dict] = []
    for event in eventlog:
        if not start <= event.time <= end:
            continue
        key = f"{event.kind}:{event.to}"
        census[key] = census.get(key, 0) + 1
        if len(raw) < MAX_RAW_TRANSITIONS:
            raw.append({
                "seq": event.seq, "time": event.time,
                "kind": event.kind, "entity": event.entity,
                "from": event.frm, "to": event.to, "cause": event.cause,
            })

    # 4. Kernel health.
    kernel = kernel_stats(sim).to_dict()

    return ExplainReport(alert, window, exemplars, traces, raw, census,
                         kernel)


def explain_all(slo, metrics, tracer=None, eventlog=None,
                max_traces: int = 5,
                max_alerts: int = 5) -> List[ExplainReport]:
    """Reports for the engine's most recent ``max_alerts`` episodes —
    what the dashboard's drill-down panel embeds."""
    return [explain(alert, metrics, tracer=tracer, eventlog=eventlog,
                    max_traces=max_traces)
            for alert in slo.alerts[-max_alerts:]]


__all__ = ["ExplainReport", "MAX_RAW_TRANSITIONS", "alert_window",
           "explain", "explain_all"]
