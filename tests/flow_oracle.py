"""Exact reference for :class:`~repro.network.FlowScheduler`.

Everything here is rational arithmetic over :class:`fractions.Fraction`
(every float converts exactly), so it has no rounding and no EPSILON:

* :func:`maxmin` — weighted progressive filling.  Links, ``SharedCap``s
  and per-flow rate caps are all constraints; a constraint saturates
  when its residual is exactly zero.
* :func:`replay` — the fluid model driven by a :class:`FlowLog` of one
  run's starts, cancellations and capacity changes, each at the
  ``sim.now`` it happened.  It returns every completed flow's finish
  time, path latency included.

The scheduler's floats are judged by their relative distance from these
values (:func:`rel_err`).
"""

from fractions import Fraction


class FlowLog:
    """Records what a live scheduler was asked to do, for :func:`replay`.

    Wraps ``sched``'s ``start_flow``, ``cancel`` and ``links_changed``
    (the topology notifies the instance attribute) and taps its
    completions.  ``events`` holds ``(time, kind, payload)`` in call
    order: ``"start"`` with ``(flow, {link: bandwidth})``, ``"cancel"``
    with the flow (only if it was still in flight) and ``"capacity"``
    with ``{link: bandwidth}``.
    """

    def __init__(self, sched):
        self.sched = sched
        self.events = []
        self.records = []  # FlowRecords in completion order
        sched.taps.append(self.records.append)
        start, cancel, links_changed = (
            sched.start_flow, sched.cancel, sched.links_changed)

        def recording_start(*args, **kwargs):
            flow = start(*args, **kwargs)
            self._log("start", (flow, _capacities(flow.links)))
            return flow

        def recording_cancel(flow):
            live = flow in sched.active_flows
            cancel(flow)
            if live:
                self._log("cancel", flow)

        def recording_links_changed(links):
            links = list(links)
            self._log("capacity", _capacities(links))
            links_changed(links)

        sched.start_flow = recording_start
        sched.cancel = recording_cancel
        sched.links_changed = recording_links_changed

    def _log(self, kind, payload):
        self.events.append((self.sched.sim.now, kind, payload))

    @property
    def flows(self):
        """Every started flow, in start order."""
        return [p[0] for _, kind, p in self.events if kind == "start"]

    @property
    def cancelled(self):
        """The flows cancelled in flight, in cancellation order."""
        return [p for _, kind, p in self.events if kind == "cancel"]


def _capacities(links):
    return {link: link.bandwidth for link in links}


def maxmin(flows, capacity):
    """Exact weighted max-min rates ``{flow: Fraction}``.

    ``flows`` carry ``weight``, ``rate_cap`` and ``links``;
    ``capacity`` maps every link to its bandwidth.  All unfrozen flows
    rise in proportion to their weights; when a constraint's residual
    reaches exactly zero, every flow crossing it freezes.
    """
    weight = {flow: Fraction(flow.weight) for flow in flows}
    crossing, residual = {}, {}
    for flow in weight:
        for link in flow.links:
            if link not in crossing:
                crossing[link] = set()
                residual[link] = Fraction(capacity[link])
            crossing[link].add(flow)
        if flow.rate_cap is not None:
            cap = ("cap", flow)
            crossing[cap] = {flow}
            residual[cap] = Fraction(flow.rate_cap)
    rates = {}
    fill = Fraction(0)
    while any(crossing.values()):
        wsum = {c: sum(weight[f] for f in fs)
                for c, fs in crossing.items() if fs}
        delta = min(residual[c] / w for c, w in wsum.items())
        fill += delta
        frozen = set()
        for c, w in wsum.items():
            residual[c] -= delta * w
            if residual[c] == 0:
                frozen |= crossing[c]
        for flow in frozen:
            rates[flow] = fill * weight[flow]
        for fs in crossing.values():
            fs -= frozen
    assert len(rates) == len(weight), "a flow crosses no constraint"
    return rates


def replay(log):
    """Exact finish times ``{flow: Fraction}`` of the flows in ``log``
    that drain and are not cancelled.

    A flow finishes its path latency after its last byte leaves.  A
    cancellation logged at the very instant the exact flow drains is a
    same-instant tie the scheduler resolved as a cancellation, so the
    flow does not count as finished.
    """
    capacity = {}
    remaining = {}  # flow -> Fraction bytes still to send
    drained = {}  # flow -> Fraction drain instant
    rates = None  # maxmin over ``remaining``; None once it is stale
    now = Fraction(0)

    def advance(to):
        """Run the fluid model from ``now`` to ``to`` (None: until idle)."""
        nonlocal now, rates
        while remaining:
            if rates is None:
                rates = maxmin(remaining, capacity)
            step = min(remaining[f] / rates[f] for f in remaining)
            if to is not None and now + step > to:
                break
            now += step
            for flow in list(remaining):
                remaining[flow] -= rates[flow] * step
                if remaining[flow] == 0:
                    del remaining[flow]
                    drained[flow] = now
            rates = None
        if to is not None:
            for flow in remaining:
                remaining[flow] -= rates[flow] * (to - now)
            now = to

    for time, kind, payload in log.events:
        advance(Fraction(time))
        if kind == "start":
            flow, links = payload
            capacity.update(links)
            if flow.size == 0:
                drained[flow] = now
            else:
                remaining[flow] = Fraction(flow.size)
        elif kind == "cancel":
            if remaining.pop(payload, None) is None:
                assert drained.get(payload) == now, (
                    f"{payload!r} cancelled after it drained")
                del drained[payload]
        else:
            capacity.update(payload)
        rates = None
    advance(None)
    return {flow: at + Fraction(sum(l.latency for l in flow.path))
            for flow, at in drained.items()}


def rel_err(got, exact):
    """``|got - exact| / |exact|`` as a float (absolute when exact is 0)."""
    diff = abs(Fraction(got) - exact)
    return float(diff / abs(exact) if exact else diff)
