"""SLO objectives and multi-window burn-rate alerting in sim time.

An :class:`Objective` declares a target over a metrics series —
"migration downtime p99 ≤ 2 s over a 300 s window", "spot rescue rate
≥ 50 %" — and the :class:`SLOEngine` evaluates all objectives
periodically on the simulation clock, maintaining bounded streaming
windows (:mod:`repro.obs.windows`) over the raw series so no evaluation
re-scans history.

Alerting follows the SRE multi-window burn-rate recipe: the error
*budget* is ``1 - target`` (e.g. a 99 % objective tolerates violation
1 % of the time) and the *burn rate* over a lookback window is::

    burn(W) = (violating time in W / |W|) / budget

A burn of 1 spends the budget exactly on schedule; 10 spends it ten
times too fast.  An alert **fires** only when both a short window (is
it bad *now*?) and a long window (has it been bad for a while?) exceed
``fire_burn`` — the classic guard against paging on blips — and
**resolves** once the objective is compliant and the short-window burn
has decayed below ``resolve_burn`` (hysteresis against flapping).

Lifecycle: ``pending`` (first violating evaluation, opens an
``alert:<name>`` span on the ``slo`` trace track) → ``firing`` (burn
thresholds crossed; subscribers such as
:class:`repro.autonomic.SLOMonitor` are notified) → ``resolved``.
Every transition lands as a span event — i.e. an instant in the
Chrome-trace export — and bumps ``alerts.<state>`` counters, flat and
labeled by objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .trace import NULL_SPAN, tracer_of
from .windows import CounterWindow, TimeWindow


class AlertState:
    """Alert lifecycle states (plain strings so they serialize as-is)."""

    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda v, t: v <= t,
    "<": lambda v, t: v < t,
    ">=": lambda v, t: v >= t,
    ">": lambda v, t: v > t,
}


@dataclass(frozen=True)
class BurnRatePolicy:
    """Multi-window burn-rate thresholds for one objective.

    ``target`` is the compliance goal (0.99 = compliant 99 % of the
    time); its complement is the error budget the burn rate is measured
    against.
    """

    target: float = 0.99
    short_window: float = 60.0
    long_window: float = 300.0
    fire_burn: float = 1.0
    resolve_burn: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target {self.target} outside (0, 1)")
        if self.short_window <= 0 or self.long_window < self.short_window:
            raise ValueError("need 0 < short_window <= long_window")
        if self.resolve_burn > self.fire_burn:
            raise ValueError("resolve_burn must not exceed fire_burn")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class Objective:
    """One service-level objective over recorded metrics.

    ``aggregate`` picks the statistic computed over the trailing
    ``window`` seconds of ``series``:

    * ``"p<q>"`` — interpolated percentile (``"p99"``, ``"p99.9"``);
    * ``"mean"`` / ``"max"`` / ``"last"`` — the obvious ones;
    * ``"ratio"`` — windowed delta of counter ``good_series`` divided
      by the windowed delta of counter ``series`` (success rates:
      rescued / resolved).

    ``op`` compares that value against ``threshold``; the objective is
    *violating* when the comparison fails.  A window with no data (or,
    for ratios, no denominator growth) yields no value and counts as
    compliant — absence of traffic is not an outage.
    """

    name: str
    series: str
    threshold: float
    aggregate: str = "p99"
    op: str = "<="
    window: float = 300.0
    good_series: Optional[str] = None
    policy: BurnRatePolicy = field(default_factory=BurnRatePolicy)
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r} (use one of {sorted(_OPS)})")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.aggregate == "ratio":
            if self.good_series is None:
                raise ValueError(
                    f"objective {self.name!r}: aggregate 'ratio' needs "
                    f"good_series (numerator counter)")
        elif self.aggregate not in ("mean", "max", "last"):
            if not self.aggregate.startswith("p"):
                raise ValueError(f"unknown aggregate {self.aggregate!r}")
            try:
                q = float(self.aggregate[1:])
            except ValueError:
                raise ValueError(
                    f"unknown aggregate {self.aggregate!r}") from None
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile {self.aggregate!r} out of range")

    def compliant(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class Alert:
    """One alert episode for an objective (pending → firing → resolved)."""

    objective: Objective
    state: str
    pending_at: float
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    value: Optional[float] = None
    span: object = NULL_SPAN

    def to_dict(self) -> dict:
        return {
            "objective": self.objective.name,
            "state": self.state,
            "pending_at": self.pending_at,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value": self.value,
        }


class _ObjectiveState:
    """The engine's per-objective working set: streaming windows over
    the backing series plus the violation step function burn rates are
    integrated from."""

    __slots__ = ("objective", "cursor", "good_cursor", "values",
                 "total_counter", "good_counter", "indicator", "born",
                 "value", "violating", "burn_short", "burn_long", "alert")

    def __init__(self, objective: Objective):
        self.objective = objective
        self.cursor = 0          # consumed samples of objective.series
        self.good_cursor = 0     # … of objective.good_series (ratio)
        self.values = TimeWindow()
        self.total_counter = CounterWindow()
        self.good_counter = CounterWindow()
        #: (t, violating) step function; entry i holds over
        #: [t_i, t_{i+1}), the last entry holds to now.
        self.indicator: List = []
        self.born: Optional[float] = None  # first evaluation time
        self.value: Optional[float] = None
        self.violating = False
        self.burn_short = 0.0
        self.burn_long = 0.0
        self.alert: Optional[Alert] = None

    # -- ingest --------------------------------------------------------

    def ingest(self, metrics, now: float) -> None:
        obj = self.objective
        horizon = now - obj.window
        if obj.aggregate == "ratio":
            self.cursor = self._feed_counter(
                metrics, obj.series, self.cursor, self.total_counter)
            self.good_cursor = self._feed_counter(
                metrics, obj.good_series, self.good_cursor,
                self.good_counter)
            self.total_counter.trim(horizon)
            self.good_counter.trim(horizon)
        else:
            ts = metrics.get(obj.series)
            if ts is not None:
                # Cursors are *lifetime* positions: ring-bounded series
                # evict old samples, so translate through ts.dropped
                # (evictions past the cursor are simply unseen).
                start = max(0, self.cursor - ts.dropped)
                for t, v in ts.samples[start:]:
                    self.values.observe(t, float(v))
                self.cursor = ts.dropped + len(ts.samples)
            self.values.trim(horizon)

    @staticmethod
    def _feed_counter(metrics, name, cursor, window) -> int:
        ts = metrics.get(name)
        if ts is None:
            return cursor
        for t, v in ts.samples[max(0, cursor - ts.dropped):]:
            window.observe(t, float(v))
        return ts.dropped + len(ts.samples)

    # -- evaluate ------------------------------------------------------

    def compute_value(self, now: float) -> Optional[float]:
        obj = self.objective
        if obj.aggregate == "ratio":
            horizon = now - obj.window
            total = self.total_counter.delta(horizon)
            if total <= 0:
                return None
            return self.good_counter.delta(horizon) / total
        if not self.values.count:
            return None
        if obj.aggregate == "mean":
            return self.values.mean()
        if obj.aggregate == "max":
            return self.values.maximum()
        if obj.aggregate == "last":
            return self.values.last()
        return self.values.percentile(float(obj.aggregate[1:]))

    def mark(self, now: float, violating: bool) -> None:
        """Extend the violation step function and drop entries no
        longer reachable by the long burn window (keeping the newest
        pre-horizon entry — it covers the window's left edge)."""
        if self.born is None:
            self.born = now
        if self.indicator and self.indicator[-1][1] == violating:
            pass  # run-length: the open entry already says so
        else:
            self.indicator.append((now, violating))
        horizon = now - self.objective.policy.long_window
        while len(self.indicator) >= 2 and self.indicator[1][0] <= horizon:
            self.indicator.pop(0)

    def burn(self, now: float, window: float) -> float:
        """Burn rate over the trailing ``window``: violating-time
        fraction divided by the error budget."""
        horizon = max(now - window, self.born if self.born is not None
                      else now)
        span = now - horizon
        if span <= 0:
            fraction = 1.0 if self.violating else 0.0
        else:
            violating_time = 0.0
            for i, (t, bad) in enumerate(self.indicator):
                if not bad:
                    continue
                end = (self.indicator[i + 1][0]
                       if i + 1 < len(self.indicator) else now)
                lo = max(t, horizon)
                if end > lo:
                    violating_time += end - lo
            fraction = violating_time / span
        return fraction / self.objective.policy.budget


class SLOEngine:
    """Periodic evaluator of :class:`Objective` s over a
    :class:`~repro.metrics.MetricsRecorder`.

    ``engine.start()`` schedules evaluation every ``interval`` sim
    seconds (first at ``t0 + interval``); :meth:`evaluate` may also be
    called directly, e.g. at scenario end.  Subscribers registered via
    :meth:`subscribe` receive every :class:`Alert` whose state just
    transitioned (pending, firing, resolved).
    """

    def __init__(self, sim, metrics, interval: float = 30.0, tracer=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.metrics = metrics
        self.interval = interval
        self._tracer = tracer
        self._states: Dict[str, _ObjectiveState] = {}
        self._subscribers: List[Callable[[Alert], None]] = []
        #: Every alert episode ever opened, in creation order.
        self.alerts: List[Alert] = []
        self._running = False
        self._proc = None

    @property
    def tracer(self):
        return self._tracer if self._tracer is not None else tracer_of(self.sim)

    # -- wiring --------------------------------------------------------

    def add(self, objective: Objective) -> Objective:
        if objective.name in self._states:
            raise ValueError(f"duplicate objective {objective.name!r}")
        self._states[objective.name] = _ObjectiveState(objective)
        return objective

    def objectives(self) -> List[Objective]:
        return [s.objective for s in self._states.values()]

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        """Register ``callback(alert)`` for every state transition."""
        self._subscribers.append(callback)

    def start(self) -> "SLOEngine":
        if self._running:
            return self
        self._running = True
        self._proc = self.sim.process(self._loop(), name="slo-engine")
        return self

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if not self._running:
                return
            self.evaluate()

    # -- evaluation ----------------------------------------------------

    def evaluate(self) -> List[Alert]:
        """Evaluate every objective at ``sim.now``; returns the alerts
        that transitioned this round."""
        now = self.sim.now
        transitions: List[Alert] = []
        for state in self._states.values():
            state.ingest(self.metrics, now)
            state.value = state.compute_value(now)
            state.violating = (state.value is not None
                               and not state.objective.compliant(state.value))
            state.mark(now, state.violating)
            policy = state.objective.policy
            state.burn_short = state.burn(now, policy.short_window)
            state.burn_long = state.burn(now, policy.long_window)
            alert = self._transition(state, now)
            if alert is not None:
                transitions.append(alert)
        return transitions

    def _transition(self, state: _ObjectiveState,
                    now: float) -> Optional[Alert]:
        obj = state.objective
        alert = state.alert
        active = alert is not None and alert.state != AlertState.RESOLVED

        if not active:
            if not state.violating:
                return None
            span = self.tracer.start(f"alert:{obj.name}", track="slo",
                                     objective=obj.name, series=obj.series,
                                     threshold=obj.threshold, op=obj.op)
            alert = Alert(objective=obj, state=AlertState.PENDING,
                          pending_at=now, value=state.value, span=span)
            span.event(AlertState.PENDING, value=state.value)
            state.alert = alert
            self.alerts.append(alert)
            self._announce(alert)
            return alert

        alert.value = state.value
        if alert.state == AlertState.PENDING:
            if not state.violating:
                # Never burned hot enough to fire: close quietly.
                alert.state = AlertState.RESOLVED
                alert.resolved_at = now
                alert.span.end("ok")
                state.alert = None
                return None
            policy = obj.policy
            if (state.burn_short >= policy.fire_burn
                    and state.burn_long >= policy.fire_burn):
                alert.state = AlertState.FIRING
                alert.fired_at = now
                alert.span.event(AlertState.FIRING, value=state.value,
                                 burn_short=state.burn_short,
                                 burn_long=state.burn_long)
                self._announce(alert)
                return alert
            return None

        # FIRING: hysteresis — wait for compliance *and* a cool short
        # window before resolving.
        if (not state.violating
                and state.burn_short <= obj.policy.resolve_burn):
            alert.state = AlertState.RESOLVED
            alert.resolved_at = now
            alert.span.event(AlertState.RESOLVED, value=state.value)
            alert.span.end(AlertState.RESOLVED)
            state.alert = None
            self._announce(alert)
            return alert
        return None

    def _announce(self, alert: Alert) -> None:
        name = alert.objective.name
        self.metrics.counter(f"alerts.{alert.state}").inc()
        self.metrics.counter(f"alerts.{alert.state}",
                             labels={"objective": name}).inc()
        for callback in self._subscribers:
            callback(alert)

    # -- introspection -------------------------------------------------

    def snapshot(self) -> List[dict]:
        """JSON-ready status of every objective — what the dashboard
        renders."""
        out = []
        for state in self._states.values():
            obj = state.objective
            alert = state.alert
            out.append({
                "name": obj.name,
                "series": obj.series,
                "good_series": obj.good_series,
                "aggregate": obj.aggregate,
                "op": obj.op,
                "threshold": obj.threshold,
                "window": obj.window,
                "target": obj.policy.target,
                "description": obj.description,
                "value": state.value,
                "compliant": not state.violating,
                "burn_short": state.burn_short,
                "burn_long": state.burn_long,
                "state": alert.state if alert is not None else "ok",
            })
        return out

    def __repr__(self):
        return (f"<SLOEngine objectives={len(self._states)} "
                f"alerts={len(self.alerts)}>")
