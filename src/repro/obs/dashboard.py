"""Self-contained health dashboard: JSON payload + static HTML.

:func:`dashboard_payload` assembles everything the watchtower knows —
objective status and burn rates from an :class:`~repro.obs.slo.SLOEngine`,
alert history, per-dimension health rollups, and a per-series summary
table — into one JSON-ready dict (schema ``repro.watchtower/1``).
:func:`render_html` turns that payload into a single HTML file with
inline styles and SVG sparklines: no external assets, openable from a
CI artifact tab.  :func:`dump_dashboard` writes both.

The payload also carries a ``kernel`` section — the
:func:`~repro.obs.profile.kernel_stats` snapshot of the simulator that
drives the recorder (queue depth, dead-entry ratio, compactions,
dispatch counters) — rendered as its own panel.
"""

from __future__ import annotations

import html
import json
import os
from typing import List, Sequence

from .rollup import DEFAULT_DIMENSIONS, flat_series_summary, health_rollups

SCHEMA = "repro.watchtower/1"

_STATE_COLORS = {
    "ok": "#2e7d32",
    "pending": "#f9a825",
    "firing": "#c62828",
    "resolved": "#546e7a",
}


def dashboard_payload(
    metrics,
    slo=None,
    dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    tracer=None,
    eventlog=None,
) -> dict:
    """The dashboard's data model; every value JSON-serializable.

    With an ``slo`` engine the payload also carries ``exemplars`` (the
    recorder's trace-linked observations, keyed by series) and a
    ``drilldown`` panel: one :func:`repro.obs.query.explain` report per
    recent alert episode, joining exemplar traces, critical paths, and
    eventlog transitions inside each alert's window.  ``tracer`` /
    ``eventlog`` default to whatever is installed on the recorder's
    simulator."""
    from .profile import kernel_stats

    payload = {
        "schema": SCHEMA,
        "generated_at": metrics.sim.now,
        "objectives": slo.snapshot() if slo is not None else [],
        "alerts": [a.to_dict() for a in slo.alerts] if slo is not None else [],
        "rollups": health_rollups(metrics, dimensions),
        "series": flat_series_summary(metrics),
        "kernel": kernel_stats(metrics.sim).to_dict(),
        "exemplars": (metrics.exemplars_as_dict()
                      if hasattr(metrics, "exemplars_as_dict") else {}),
        "drilldown": [],
    }
    if slo is not None and slo.alerts:
        from .query import explain_all

        payload["drilldown"] = [
            report.to_dict()
            for report in explain_all(slo, metrics, tracer=tracer,
                                      eventlog=eventlog)]
    return payload


# -- HTML rendering ------------------------------------------------------


def _sparkline(samples: List, width: int = 160, height: int = 28,
               max_points: int = 100) -> str:
    """An inline SVG polyline of (t, v) samples (downsampled)."""
    pts = [(float(t), float(v)) for t, v in samples]
    if len(pts) > max_points:
        step = len(pts) / max_points
        pts = [pts[int(i * step)] for i in range(max_points)]
    if not pts:
        return ""
    if len(pts) == 1:
        pts = pts * 2
    t0, t1 = pts[0][0], pts[-1][0]
    vs = [v for _, v in pts]
    v0, v1 = min(vs), max(vs)
    tspan = (t1 - t0) or 1.0
    vspan = (v1 - v0) or 1.0
    coords = " ".join(
        f"{(t - t0) / tspan * (width - 2) + 1:.1f},"
        f"{height - 1 - (v - v0) / vspan * (height - 2):.1f}"
        for t, v in pts)
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="#1565c0" stroke-width="1.2" '
            f'points="{coords}"/></svg>')


def _badge(state: str) -> str:
    color = _STATE_COLORS.get(state, "#455a64")
    return (f'<span class="badge" style="background:{color}">'
            f'{html.escape(state)}</span>')


def _fmt(value) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:.4g}"
    return html.escape(str(value))


def render_html(payload: dict, metrics=None) -> str:
    """Render the payload as a standalone HTML page.  When ``metrics``
    is passed, series rows get sparklines of their raw samples."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>watchtower</title><style>",
        "body{font:14px/1.45 system-ui,sans-serif;margin:24px;"
        "color:#212121;max-width:1100px}",
        "h1{font-size:20px} h2{font-size:16px;margin-top:28px}",
        "table{border-collapse:collapse;width:100%}",
        "th,td{border-bottom:1px solid #e0e0e0;padding:4px 10px;"
        "text-align:left;font-variant-numeric:tabular-nums}",
        "th{background:#f5f5f5}",
        ".badge{color:#fff;border-radius:3px;padding:1px 7px;"
        "font-size:12px}",
        ".num{text-align:right}",
        "</style></head><body>",
        "<h1>watchtower health dashboard</h1>",
        f"<p>schema <code>{html.escape(payload['schema'])}</code> · "
        f"generated at sim time <b>{_fmt(payload['generated_at'])}</b></p>",
    ]

    kernel = payload.get("kernel")
    if kernel:
        parts.append("<h2>Kernel</h2>")
        parts.append("<table><tr>")
        columns = [
            ("backend", "backend"), ("queue depth", "queue_depth"),
            ("dead", "dead_entries"), ("dead ratio", "dead_ratio"),
            ("compactions", "compactions"),
            ("events", "events_dispatched"),
            ("batches", "batches_dispatched"), ("max batch", "max_batch"),
            ("preemptions", "preemptions"),
        ]
        if "bucket_width" in kernel:
            columns += [("bucket width", "bucket_width"),
                        ("buckets", "buckets"),
                        ("max bucket", "max_bucket"),
                        ("mean bucket", "mean_bucket")]
        parts.append("".join(f"<th>{html.escape(label)}</th>"
                             for label, _ in columns))
        parts.append("</tr><tr>")
        parts.append("".join(
            f"<td class='num'>{_fmt(kernel.get(key))}</td>"
            for _, key in columns))
        parts.append("</tr></table>")

    parts.append("<h2>SLO objectives</h2>")
    if payload["objectives"]:
        parts.append(
            "<table><tr><th>objective</th><th>signal</th><th>target</th>"
            "<th class='num'>value</th><th class='num'>burn (short)</th>"
            "<th class='num'>burn (long)</th><th>state</th></tr>")
        for obj in payload["objectives"]:
            signal = f"{obj['aggregate']}({obj['series']})"
            if obj.get("good_series"):
                signal = f"{obj['good_series']} / {obj['series']}"
            parts.append(
                "<tr>"
                f"<td>{html.escape(obj['name'])}</td>"
                f"<td><code>{html.escape(signal)}</code> over "
                f"{_fmt(obj['window'])}s</td>"
                f"<td>{html.escape(obj['op'])} {_fmt(obj['threshold'])}</td>"
                f"<td class='num'>{_fmt(obj['value'])}</td>"
                f"<td class='num'>{_fmt(obj['burn_short'])}</td>"
                f"<td class='num'>{_fmt(obj['burn_long'])}</td>"
                f"<td>{_badge(obj['state'])}</td></tr>")
        parts.append("</table>")
    else:
        parts.append("<p>No objectives registered.</p>")

    parts.append("<h2>Alert history</h2>")
    if payload["alerts"]:
        parts.append(
            "<table><tr><th>objective</th><th>state</th>"
            "<th class='num'>pending</th><th class='num'>fired</th>"
            "<th class='num'>resolved</th><th class='num'>last value</th>"
            "</tr>")
        for alert in payload["alerts"]:
            parts.append(
                "<tr>"
                f"<td>{html.escape(alert['objective'])}</td>"
                f"<td>{_badge(alert['state'])}</td>"
                f"<td class='num'>{_fmt(alert['pending_at'])}</td>"
                f"<td class='num'>{_fmt(alert['fired_at'])}</td>"
                f"<td class='num'>{_fmt(alert['resolved_at'])}</td>"
                f"<td class='num'>{_fmt(alert['value'])}</td></tr>")
        parts.append("</table>")
    else:
        parts.append("<p>No alerts.</p>")

    drilldown = payload.get("drilldown") or []
    if drilldown:
        parts.append("<h2>Alert drill-down</h2>")
        for report in drilldown:
            alert = report["alert"]
            window = report["window"]
            parts.append(
                f"<h3>{html.escape(alert['objective'])} "
                f"{_badge(alert['state'])} · window "
                f"[{_fmt(window['start'])}, {_fmt(window['end'])}]</h3>")
            if report["traces"]:
                parts.append(
                    "<table><tr><th class='num'>trace</th><th>root</th>"
                    "<th>status</th><th class='num'>spans</th>"
                    "<th>critical path</th></tr>")
                for trace in report["traces"]:
                    cp = trace.get("critical_path")
                    parts.append(
                        "<tr>"
                        f"<td class='num'>{_fmt(trace['trace_id'])}</td>"
                        f"<td><code>{html.escape(trace['root'])}</code></td>"
                        f"<td>{html.escape(trace['status'])}</td>"
                        f"<td class='num'>{_fmt(trace['span_count'])}</td>"
                        f"<td><code>"
                        + html.escape(cp["format"] if cp else "–")
                        + "</code></td></tr>")
                parts.append("</table>")
            else:
                parts.append("<p>No exemplar traces retained in the "
                             "window.</p>")
            census = report.get("transition_census") or {}
            if census:
                parts.append(
                    "<p>transitions: " + ", ".join(
                        f"<code>{html.escape(key)}</code>×{count}"
                        for key, count in sorted(census.items()))
                    + "</p>")

    for dim, groups in payload["rollups"].items():
        parts.append(f"<h2>Health by {html.escape(dim)}</h2>")
        parts.append(
            "<table><tr><th>" + html.escape(dim) + "</th><th>metric</th>"
            "<th class='num'>count</th><th class='num'>mean</th>"
            "<th class='num'>p99</th><th class='num'>last</th></tr>")
        for value, bases in groups.items():
            first = True
            for base, stats in bases.items():
                label = html.escape(value) if first else ""
                first = False
                parts.append(
                    "<tr>"
                    f"<td>{label}</td><td><code>{html.escape(base)}</code></td>"
                    f"<td class='num'>{_fmt(stats['count'])}</td>"
                    f"<td class='num'>{_fmt(stats['mean'])}</td>"
                    f"<td class='num'>{_fmt(stats['p99'])}</td>"
                    f"<td class='num'>{_fmt(stats['last'])}</td></tr>")
        parts.append("</table>")

    exemplars = payload.get("exemplars") or {}
    parts.append("<h2>All series</h2>")
    parts.append(
        "<table><tr><th>series</th><th class='num'>count</th>"
        "<th class='num'>mean</th><th class='num'>p99</th>"
        "<th class='num'>last</th><th>trend</th><th>exemplars</th></tr>")
    for row in payload["series"]:
        spark = ""
        if metrics is not None:
            ts = metrics.get(row["name"])
            if ts is not None:
                try:
                    spark = _sparkline(ts.samples)
                except (TypeError, ValueError):
                    spark = ""
        linked = exemplars.get(row["name"]) or []
        exemplar_cell = ""
        if linked:
            newest = linked[-1]
            exemplar_cell = (f"{len(linked)} · trace "
                             f"<code>{_fmt(newest['trace_id'])}</code>")
        parts.append(
            "<tr>"
            f"<td><code>{html.escape(row['name'])}</code></td>"
            f"<td class='num'>{_fmt(row['count'])}</td>"
            f"<td class='num'>{_fmt(row['mean'])}</td>"
            f"<td class='num'>{_fmt(row['p99'])}</td>"
            f"<td class='num'>{_fmt(row['last'])}</td>"
            f"<td>{spark}</td>"
            f"<td>{exemplar_cell}</td></tr>")
    parts.append("</table></body></html>")
    return "".join(parts)


def dump_dashboard(metrics, directory, slo=None,
                   dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
                   basename: str = "dashboard", tracer=None,
                   eventlog=None) -> dict:
    """Write ``<basename>.json`` and ``<basename>.html`` under
    ``directory`` (created if missing); returns the payload."""
    payload = dashboard_payload(metrics, slo=slo, dimensions=dimensions,
                                tracer=tracer, eventlog=eventlog)
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, f"{basename}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    html_path = os.path.join(directory, f"{basename}.html")
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_html(payload, metrics=metrics))
    return payload


__all__ = ["SCHEMA", "dashboard_payload", "render_html", "dump_dashboard"]
