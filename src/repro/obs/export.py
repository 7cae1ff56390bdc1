"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSONL.

The Chrome exporter emits the `trace-event format`_ consumed by
https://ui.perfetto.dev and ``chrome://tracing``:

* one ``"M"`` (metadata) event naming the process and each track (spans
  carry a ``track`` string; each becomes a thread lane);
* one ``"X"`` (complete) event per finished span — ``ts``/``dur`` in
  microseconds of simulated time — or ``"B"`` (begin) for spans still
  open at export;
* one ``"i"`` (instant) event per span event;
* ``"s"``/``"f"`` flow-event pairs for causal links across tracks.

The JSONL exporter writes one sorted-key JSON object per span: the
stable, diffable form — same-seed runs produce byte-identical files.

.. _trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List

_PID = 1


def _jsonable(value):
    """Values survive as-is when JSON-native, else as their str()."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _us(t: float) -> float:
    """Simulated seconds -> trace-event microseconds."""
    return t * 1e6


def _span_args(span) -> dict:
    args = {k: _jsonable(v) for k, v in span.attributes.items()}
    args["trace_id"] = span.trace_id
    args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.status != "ok":
        args["status"] = span.status
    return args


def to_chrome_trace(spans, process_name: str = "repro-sim") -> dict:
    """Spans -> a Chrome trace-event dict (``json.dump`` and load in
    Perfetto).  Track-to-tid assignment follows span creation order, so
    the output is deterministic."""
    spans = list(spans)  # two passes; accept any iterable
    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0,
        "ts": 0, "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    for span in spans:  # first pass: stable track naming
        track = span.track or "main"
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": _PID,
                "tid": tids[track], "ts": 0, "args": {"name": track},
            })
    by_id = {s.span_id: s for s in spans}
    link_seq = 0
    for span in spans:
        tid = tids[span.track or "main"]
        base = {"name": span.name, "cat": "span", "pid": _PID, "tid": tid}
        if span.end_time is None:
            events.append({**base, "ph": "B", "ts": _us(span.start),
                           "args": _span_args(span)})
        else:
            events.append({**base, "ph": "X", "ts": _us(span.start),
                           "dur": _us(span.end_time - span.start),
                           "args": _span_args(span)})
        for t, name, attrs in span.events:
            events.append({
                "ph": "i", "s": "t", "name": name, "cat": "event",
                "pid": _PID, "tid": tid, "ts": _us(t),
                "args": {k: _jsonable(v) for k, v in attrs.items()},
            })
        for src_id in span.links:
            src = by_id.get(src_id)
            if src is None or src.end_time is None:
                continue
            link_seq += 1
            events.append({
                "ph": "s", "id": link_seq, "name": "causal", "cat": "link",
                "pid": _PID, "tid": tids[src.track or "main"],
                "ts": _us(src.end_time),
            })
            events.append({
                "ph": "f", "bp": "e", "id": link_seq, "name": "causal",
                "cat": "link", "pid": _PID, "tid": tid,
                "ts": _us(span.start),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_to_dict(span) -> dict:
    """One span as a plain, JSON-ready dict."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "track": span.track,
        "start": span.start,
        "end": span.end_time,
        "status": span.status,
        "attributes": {k: _jsonable(v) for k, v in span.attributes.items()},
        "events": [
            {"t": t, "name": name,
             "attributes": {k: _jsonable(v) for k, v in attrs.items()}}
            for t, name, attrs in span.events
        ],
        "links": list(span.links),
    }


def spans_to_jsonl(spans) -> str:
    """Spans -> newline-delimited JSON, one sorted-key object per span.
    Deterministic: same spans, byte-identical text."""
    lines = [json.dumps(span_to_dict(s), sort_keys=True) for s in spans]
    return "".join(line + "\n" for line in lines)


def dump_chrome_trace(spans, path, process_name: str = "repro-sim") -> None:
    """Write :func:`to_chrome_trace` output to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(spans, process_name=process_name), fh,
                  sort_keys=True)
        fh.write("\n")


def dump_jsonl(spans, path) -> None:
    """Write :func:`spans_to_jsonl` output to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spans_to_jsonl(spans))
