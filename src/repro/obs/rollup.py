"""Health rollups: pivot labeled series by tenant / cloud / cluster.

Every series carries its base name and label set as data
(:attr:`~repro.metrics.TimeSeries.base`,
:attr:`~repro.metrics.TimeSeries.labels`), so a rollup is a pure
read-side pivot over the recorder: group every series carrying a given
label key by that label's value, and summarize each series with the
standard statistic block.  No extra bookkeeping at record time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .instruments import _interpolated_percentile, labeled_name

#: The label keys health dashboards pivot on by default.
DEFAULT_DIMENSIONS = ("tenant", "cloud", "cluster")


@dataclass(frozen=True)
class SeriesStats:
    """Summary statistics of one series' sampled values."""

    count: int
    last: Optional[float]
    mean: float
    minimum: float
    maximum: float
    p50: float
    p99: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "last": self.last,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p99": self.p99,
        }


def series_stats(ts) -> Optional[SeriesStats]:
    """Stats for one :class:`~repro.metrics.TimeSeries` (None if empty
    or non-numeric)."""
    try:
        values = sorted(float(v) for v in ts.values())
    except (TypeError, ValueError):
        return None
    if not values:
        return None
    return SeriesStats(
        count=len(values),
        last=float(ts.last()),
        mean=sum(values) / len(values),
        minimum=values[0],
        maximum=values[-1],
        p50=_interpolated_percentile(values, 50.0),
        p99=_interpolated_percentile(values, 99.0),
    )


def rollup(metrics, dimension: str) -> Dict[str, Dict[str, SeriesStats]]:
    """Pivot the recorder by one label key.

    Returns ``{label_value: {entry: stats}}`` covering every series
    that carries ``dimension`` as a label.  An entry is the series name
    with the pivot label removed: the base name for a series labeled by
    ``dimension`` alone (``queue.wait`` under ``tenant=acme``), the
    remaining labels otherwise (``spot.reclaims{cloud=c0}``), so series
    that share a base and a pivot value each keep their own entry.
    """
    out: Dict[str, Dict[str, SeriesStats]] = {}
    for name in metrics.names():
        ts = metrics.get(name)
        value = ts.labels.get(dimension)
        if value is None:
            continue
        stats = series_stats(ts)
        if stats is None:
            continue
        rest = {k: v for k, v in ts.labels.items() if k != dimension}
        out.setdefault(value, {})[labeled_name(ts.base, rest)] = stats
    return out


def health_rollups(
    metrics,
    dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
) -> Dict[str, Dict[str, Dict[str, dict]]]:
    """JSON-ready rollups across every dimension:
    ``{dimension: {label_value: {entry: stats_dict}}}`` (entries as in
    :func:`rollup`).
    Dimensions with no labeled series are omitted."""
    out: Dict[str, Dict[str, Dict[str, dict]]] = {}
    for dim in dimensions:
        pivot = rollup(metrics, dim)
        if pivot:
            out[dim] = {
                value: {entry: stats.to_dict()
                        for entry, stats in sorted(groups.items())}
                for value, groups in sorted(pivot.items())
            }
    return out


def flat_series_summary(metrics, limit: Optional[int] = None) -> List[dict]:
    """One stats row per series (labeled and flat), name-sorted — the
    dashboard's series table."""
    rows = []
    for name in metrics.names():
        ts = metrics.get(name)
        stats = series_stats(ts)
        if stats is None:
            continue
        rows.append({"name": name, "base": ts.base, "labels": dict(ts.labels),
                     **stats.to_dict()})
        if limit is not None and len(rows) >= limit:
            break
    return rows
