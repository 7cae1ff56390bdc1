"""Flow-level data transfers with max-min fair bandwidth sharing.

This is the fluid traffic model standing in for the paper's real WAN and
LAN links.  Every bulk transfer (a migration round, a MapReduce shuffle,
an image propagation hop) is a :class:`Flow` routed over the
:class:`~repro.network.topology.Topology`.  Rates are the **max-min
fair** allocation computed by progressive filling — the textbook model
of how competing TCP streams share bottlenecks — and each flow's
completion is rescheduled whenever its rate changes.

Allocation is incremental.  On every arrival / departure / cancellation
/ capacity change, only the **bottleneck-connected component** of
affected flows (flows sharing a link with the changed flow, transitively)
is settled and re-rated.  This is exact, not an approximation: flows
outside the component share no link with it, so their water-filling
levels are untouched by the change.  Same-timestamp changes are
coalesced into one batched recompute scheduled at URGENT priority (it
runs before any same-time NORMAL event, so no observer sees a stale
allocation), and completion deadlines are left alone when a flow's rate
is unchanged within :data:`EPSILON` — the armed deadline is already
exact.  The test suite checks rates and completion times against an
exact rational (``fractions.Fraction``) water-filling oracle.

Each armed flow's completion is a kernel timer of its own, its *wake*:
an entry under the key ``(now + eta, NORMAL, seq)`` with ``seq`` from
:meth:`~repro.simkernel.Simulator.reserve_seq`, withdrawn with
:meth:`~repro.simkernel.Event.deschedule` when the flow is re-armed or
disarmed.  The kernel queue compacts withdrawn entries once they
dominate, so cancel/restart churn holds bounded memory.

A component whose flows all cross one and the same link, with no rate
cap and weight 1.0, is a processor-sharing queue, and its link is armed
lazily, as a *lane*.  Mass deployments change such a link many times in
one instant (every VM of a cluster fetching its context at once: each
arrival re-rates the flows before it, each of n equal flows finishing
together re-rates the rest), which eager arming pays for in O(n^2).  A
lane keeps its flows in flow-id order and by ``(remaining, id)`` and
arms them all at once, holding only ``(instant, fill, first seq)``: it
reserves the seq block the eager loop would draw, so every arm keeps
its key, and as the arm time ``instant + remaining / fill`` is monotone
in the remainder, only the earliest arm, found by bisection, holds a
wake.  A same-instant arrival or departure on the link then skips the
component walk and costs O(log n) Python work, list operations in C and
one store of the fill into each flow's ``rate``.  Settling with elapsed
time, a flow keeping its deadline under the unchanged-rate rule and
links that stop being processor-sharing take the general path, which
first gives each lane flow a wake of its own under the same key; a
woken flow that drifts leaves its lane and is re-armed alone.

Per-flow rate caps (e.g. a VM NIC, or a deliberately throttled
migration) are modeled as virtual single-flow links, which integrates
them exactly into the water-filling computation.  Flows may carry a
``weight`` (default 1.0); rates are assigned proportionally to weight at
each fill level (weighted max-min).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..simkernel.core import Simulator
from ..simkernel.events import Event, URGENT
from .billing import BillingMeter
from .topology import DirectedLink, NetworkError, Topology

#: Numerical slack for rate / byte comparisons.
EPSILON = 1e-9


class FlowCancelled(NetworkError):
    """Raised into waiters when a flow is cancelled mid-transfer."""


class Flow:
    """A single in-flight bulk transfer.

    Attributes
    ----------
    done:
        Event that succeeds with the flow itself once the last byte has
        arrived (drain time plus one-way path latency), or fails with
        :class:`FlowCancelled`.
    rate:
        Current max-min fair rate (bytes/second), updated by the
        scheduler as competing flows come and go.
    weight:
        Relative share at contended links (weighted max-min); 1.0 for
        plain fair sharing.
    links:
        The shared allocation constraints: the path links (per-flow
        rate caps never connect flows and are handled inside the
        water-filling pass).
    """

    _ids = itertools.count()

    __slots__ = (
        "id", "src", "dst", "size", "remaining", "rate", "path", "done",
        "started_at", "finished_at", "rate_cap", "tag", "meta", "weight",
        "links", "_last_settled", "_lane", "_armed_rate", "_wake",
    )

    def __init__(self, sim: Simulator, src: str, dst: str, size: float,
                 path: List[DirectedLink], rate_cap: Optional[float],
                 tag: str, meta: dict, weight: float = 1.0):
        self.id = next(Flow._ids)
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.path = path
        self.done: Event = sim.event()
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.rate_cap = rate_cap
        self.tag = tag
        self.meta = meta
        self.weight = weight
        self.links = tuple(path)
        self._last_settled = sim.now
        self._lane: Optional[_Lane] = None  # the lane arming the flow
        self._armed_rate = -1.0  # rate the live arm was armed with
        self._wake: Optional[Event] = None  # the live arm's kernel entry

    @property
    def transferred(self) -> float:
        """Bytes moved so far (settled view)."""
        return self.size - self.remaining

    def __repr__(self):
        return (f"<Flow #{self.id} {self.src}->{self.dst} "
                f"{self.size:.3g}B remaining={self.remaining:.3g}B>")


class FlowRecord:
    """Immutable summary of a completed flow, delivered to taps."""

    __slots__ = ("src", "dst", "size", "started_at", "finished_at",
                 "tag", "meta")

    def __init__(self, flow: Flow):
        self.src = flow.src
        self.dst = flow.dst
        self.size = flow.size
        self.started_at = flow.started_at
        self.finished_at = flow.finished_at
        self.tag = flow.tag
        self.meta = dict(flow.meta)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    def __repr__(self):
        return f"<FlowRecord {self.src}->{self.dst} {self.size:.3g}B {self.tag}>"


_ID = attrgetter("id")
_REMAINING = attrgetter("remaining")
_REM_ID = attrgetter("remaining", "id")


class _Lane:
    """The lazily armed flows of one processor-sharing link.

    Every flow on the link crosses only that link, has no rate cap and
    weight 1.0, so all of them run at one rate, the fill, and were
    settled at the same instant when they were last armed.  A flow is
    in the lane while its ``_lane`` is the lane.

    The last arming armed ``ids``, in flow-id order, at ``instant`` with
    rate ``fill`` under the seqs ``seq ..`` drawn in that order, so a
    flow's seq is ``seq + its index``; flows that left since are
    listed in ``gone`` and drop out of ``ids`` only at the next arming.
    ``byrem`` holds the flows still in the lane ordered by
    ``(remaining, id)``: for one fill the arm time ``instant + remaining
    / fill`` is monotone in the remainder, so the earliest arms lead it.
    ``woken`` is the flow holding the lane's one wake, its
    :meth:`head`, or ``None`` from that flow's departure until the
    batched recompute re-arms the lane.  A lane that empties is
    dropped.
    """

    __slots__ = ("link", "ids", "byrem", "gone", "instant", "fill", "seq",
                 "woken")

    def __init__(self, link):
        self.link = link
        self.ids: List[Flow] = []
        self.byrem: List[Flow] = []
        self.gone: List[Flow] = []
        self.instant = self.fill = 0.0
        self.seq = 0
        self.woken: Optional[Flow] = None

    def head(self):
        """``(time, seq, flow)`` of the earliest arm.

        The flows whose arm time equals the first one's form a prefix of
        ``byrem``; the arm with the lowest seq among them belongs to the
        lowest id.  Within one remainder ``byrem`` is in id order, so
        only the first flow of each remainder in the prefix competes
        (remainders a fraction of an ulp of time apart tie)."""
        instant, fill = self.instant, self.fill
        byrem = self.byrem
        first = byrem[0]
        rem = first.remaining
        time = instant + rem / fill
        i = bisect_right(byrem, rem, key=_REMAINING)
        while i < len(byrem):
            flow = byrem[i]
            rem = flow.remaining
            if instant + rem / fill != time:
                break
            if flow.id < first.id:
                first = flow
            i = bisect_right(byrem, rem, i, key=_REMAINING)
        seq = self.seq + bisect_left(self.ids, first.id, key=_ID)
        return time, seq, first


class FlowScheduler:
    """Runs all flows over a topology with max-min fair sharing.

    Parameters
    ----------
    sim, topology:
        The simulation kernel and network graph.  The scheduler attaches
        itself to the topology, so :meth:`Topology.set_bandwidth` re-rates
        the flows in flight.
    billing:
        Optional :class:`BillingMeter`; inter-site bytes are accounted
        progressively, so cancelled flows are billed for what they
        actually moved.

    Each change re-rates only the bottleneck-connected component it
    touches (see the module docstring).
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 billing: Optional[BillingMeter] = None):
        self.sim = sim
        self.topology = topology
        self.billing = billing
        self._active: Set[Flow] = set()
        #: Callbacks invoked with a :class:`FlowRecord` on flow completion.
        self.taps: List[Callable[[FlowRecord], None]] = []
        # Persistent link -> active flows index, plus the dirty sets
        # feeding the next batched recompute.
        self._link_flows: Dict[object, Set[Flow]] = {}
        self._dirty_flows: Set[Flow] = set()
        self._dirty_links: Set[object] = set()
        self._batch_pending = False
        self._wake_cb = self._on_wake  # one bound method for every wake
        # Processor-sharing links armed lazily, and whether a batch on
        # one may skip the component walk: not when a subclass redefines
        # the component (a whole-network reference, say).
        self._lanes: Dict[object, _Lane] = {}
        self._ps_fast = type(self)._component is FlowScheduler._component
        #: Allocator counters (batches run, flows re-rated, deadlines
        #: armed/skipped) — read by benchmarks, never reset.
        self.stats = {"batches": 0, "flows_rerated": 0,
                      "timers_armed": 0, "timers_skipped": 0}
        topology.attach(self)

    # -- public API ----------------------------------------------------------

    @property
    def active_flows(self) -> Set[Flow]:
        """The flows currently in flight (do not mutate)."""
        return self._active

    def start_flow(self, src: str, dst: str, size: float,
                   rate_cap: Optional[float] = None, tag: str = "data",
                   weight: float = 1.0, **meta) -> Flow:
        """Begin transferring ``size`` bytes from site ``src`` to ``dst``.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.
        Zero-sized flows complete after the path latency alone.
        """
        if not 0 <= size < math.inf:
            raise ValueError(f"flow size must be finite and >= 0, got {size}")
        if not 0 < weight < math.inf:
            raise ValueError(
                f"flow weight must be finite and positive, got {weight}")
        if rate_cap is not None and not 0 < rate_cap < math.inf:
            raise ValueError(
                f"rate cap must be finite and positive, got {rate_cap}")
        path = self.topology.path(src, dst)
        flow = Flow(self.sim, src, dst, size, path, rate_cap, tag, meta,
                    weight)
        if size == 0:
            self._finish_after_latency(flow, sum(l.latency for l in path))
            return flow
        self._active.add(flow)
        self._index(flow)
        self._mark_dirty(flows=(flow,))
        return flow

    def links_changed(self, links: Iterable[object]) -> None:
        """Topology notification: the capacity of ``links`` changed."""
        affected = [l for l in links if l in self._link_flows]
        if affected:
            self._mark_dirty(links=affected)

    def cancel(self, flow: Flow) -> None:
        """Abort an in-flight flow; its waiters see :class:`FlowCancelled`."""
        if flow not in self._active:
            return
        # Disarm before settling: a lane finds its flows by remainder.
        self._disarm(flow)
        # Bill the cancelled flow up to this instant; its neighbours keep
        # their (still valid) rates until the batched recompute.
        self._settle((flow,))
        self._active.discard(flow)
        flow.done.fail(FlowCancelled(f"{flow!r} cancelled"))
        flow.done.defused = True  # cancellation is never a crash
        self._unindex(flow)
        self._mark_dirty(links=flow.links)

    # -- incremental machinery ----------------------------------------------

    def _index(self, flow: Flow) -> None:
        for link in flow.links:
            self._link_flows.setdefault(link, set()).add(flow)

    def _unindex(self, flow: Flow) -> None:
        for link in flow.links:
            flows = self._link_flows.get(link)
            if flows is not None:
                flows.discard(flow)
                if not flows:
                    del self._link_flows[link]

    def _mark_dirty(self, flows: Iterable[Flow] = (),
                    links: Iterable[object] = ()) -> None:
        """Queue flows/links for the next batched recompute, scheduling
        one URGENT-priority pass at the current timestamp if none is
        pending yet (coalescing all same-time changes)."""
        self._dirty_flows.update(flows)
        self._dirty_links.update(links)
        if self._batch_pending:
            return
        self._batch_pending = True
        self.sim.call_in(0.0, self._run_batch, priority=URGENT)

    def _run_batch(self, _ev) -> None:
        self._batch_pending = False
        flows, links = self._dirty_flows, self._dirty_links
        self._dirty_flows, self._dirty_links = set(), set()
        if self._ps_fast:
            link = self._ps_link(flows, links)
            if link is not None and self._ps_batch(link, flows):
                return
        component = self._component(flows, links)
        if not component:
            return
        self.stats["batches"] += 1
        self.stats["flows_rerated"] += len(component)
        # One flow-id order for settling (billing sums), filling and
        # re-arming: set order would follow memory addresses.
        order = sorted(component, key=_ID)
        self._unlane(order)
        self._settle(order)
        self._maxmin_rates(order)
        if not self._lane_from(order):
            self._schedule_completions(order)

    def _ps_link(self, flows: Set[Flow], links: Set[object]):
        """The one link every seed of a batch touches, if all of them
        touch the same one and the flow seeds are single-link, uncapped
        and of weight 1.0; else ``None``.  Links carrying no flow seed
        nothing, as in :meth:`_component`."""
        found = None
        for flow in flows:
            if flow not in self._active:
                continue
            if (len(flow.links) != 1 or flow.rate_cap is not None
                    or flow.weight != 1.0):
                return None
            link = flow.links[0]
            if found is None:
                found = link
            elif link is not found:
                return None
        for link in links:
            if link in self._link_flows:
                if found is None:
                    found = link
                elif link is not found:
                    return None
        return found

    def _ps_batch(self, link, flows: Set[Flow]) -> bool:
        """Re-rate the flows on ``link`` as one lane, without walking
        them; return False, having changed nothing, where the general
        path must run instead.

        That path is exact here when every flow on the link is in its
        lane or is a new flow seeded by this batch: the link is then a
        processor-sharing component (lane flows have that shape, and
        :meth:`_ps_link` checked the new ones), so the component walk
        would find exactly these flows, and the one round of
        :meth:`_maxmin_rates` would give each the rate ``bandwidth /
        n``.  Lane flows were all settled at the lane's instant, so when
        that is now, settling changes nothing and is skipped; otherwise
        they are settled and billed in flow-id order, as the general
        path does.  It is needed instead
        when a lane flow would keep its deadline (the fill is unchanged
        within EPSILON) or a deadline would not be finite (the general
        path raises)."""
        new = sorted((f for f in flows if f in self._active), key=_ID)
        n = len(self._link_flows[link])
        lane = self._lanes.get(link)
        byrem = lane.byrem if lane is not None else []
        if len(byrem) + len(new) != n:
            return False
        # The general loop sums n weights of 1.0 from 0.0, exactly n.
        fill = link.bandwidth / float(n)
        if not 0.0 < fill < math.inf:
            return False
        if lane is not None and (abs(fill - lane.fill)
                                 <= EPSILON * (fill if fill > 1.0 else 1.0)):
            return False
        top = max([f.remaining for f in new]
                  + [f.remaining for f in byrem[-1:]])
        if not top / fill < math.inf:
            return False
        self.stats["batches"] += 1
        self.stats["flows_rerated"] += n
        if lane is None:
            lane = self._lanes[link] = _Lane(link)
            byrem = lane.byrem
        elif lane.instant != self.sim.now:
            self._settle([f for f in lane.ids if f._lane is lane])
            byrem.sort(key=_REM_ID)
        for flow in new:
            insort(byrem, flow, key=_REM_ID)
        self._arm_lane(lane, new, fill)
        return True

    def _lane_from(self, order: List[Flow]) -> bool:
        """Arm ``order``, just rated, as a new lane if it is a
        processor-sharing component re-armed whole; return whether it
        was.

        Whole means that no flow keeps its deadline under the
        unchanged-rate rule of :meth:`_schedule_completions`, which
        would arm the flows one by one under the same seqs."""
        links = order[0].links
        fill = order[0].rate
        if len(links) != 1 or not 0.0 < fill < math.inf:
            return False
        tol = EPSILON * (fill if fill > 1.0 else 1.0)
        top = 0.0
        for flow in order:
            if (flow.links != links or flow.rate_cap is not None
                    or flow.weight != 1.0):
                return False
            if flow._wake is not None and abs(fill - flow._armed_rate) <= tol:
                return False
            if flow.remaining > top:
                top = flow.remaining
        if not top / fill < math.inf:
            return False
        for flow in order:
            self._disarm(flow)
        lane = self._lanes[links[0]] = _Lane(links[0])
        lane.byrem = sorted(order, key=_REM_ID)
        self._arm_lane(lane, order, fill)
        return True

    def _arm_lane(self, lane: _Lane, new: List[Flow], fill: float) -> None:
        """Arm every flow of ``lane`` (its ``byrem`` already in order)
        plus ``new``, flow-id ordered and newer than the lane's, at
        ``fill``, superseding the lane's previous arming whole.

        The lane reserves the seq block the eager loop of
        :meth:`_schedule_completions` would draw one by one, and its
        wake moves to the new head; only the rates are stored per
        flow."""
        ids = lane.ids
        for flow in lane.gone:
            del ids[bisect_left(ids, flow.id, key=_ID)]
        lane.gone.clear()
        woken = lane.woken
        if woken is not None:
            woken._wake.deschedule()
            woken._wake = None
        for flow in new:
            flow._lane = lane
        ids.extend(new)
        for flow in ids:
            flow.rate = fill
        sim = self.sim
        lane.instant = sim.now
        lane.fill = fill
        lane.seq = sim.reserve_seq(len(ids))
        self._wake_lane(lane)
        self.stats["timers_armed"] += len(ids)

    def _wake_lane(self, lane: _Lane) -> None:
        """Give the head of ``lane`` the lane's wake."""
        time, seq, flow = lane.head()
        lane.woken = flow
        self._wake(flow, time, seq)

    def _unlane(self, order: List[Flow]) -> None:
        """Give every flow of ``order`` that is in a lane a wake of its
        own, under the key its lazy arm has, before the general path
        settles or re-arms it; the woken flow keeps its wake."""
        lanes = {flow._lane: None for flow in order
                 if flow._lane is not None}
        for lane in lanes:
            instant, fill = lane.instant, lane.fill
            for seq, flow in enumerate(lane.ids, lane.seq):
                if flow._lane is lane:
                    flow._lane = None
                    flow._armed_rate = fill
                    if flow._wake is None:
                        self._wake(flow, instant + flow.remaining / fill,
                                   seq)
            del self._lanes[lane.link]

    def _component(self, flows: Iterable[Flow] = (),
                   links: Iterable[object] = ()) -> Set[Flow]:
        """Active flows transitively sharing a link with the seeds.

        Restricting water-filling to this set is exact: by construction
        every link touched by the component carries no flow outside it.
        """
        stack = [f for f in flows if f in self._active]
        seen_links: Set[object] = set()
        for link in links:
            if link not in seen_links:
                seen_links.add(link)
                stack.extend(self._link_flows.get(link, ()))
        component: Set[Flow] = set()
        while stack:
            flow = stack.pop()
            if flow in component:
                continue
            component.add(flow)
            for link in flow.links:
                if link not in seen_links:
                    seen_links.add(link)
                    stack.extend(self._link_flows[link])
        return component

    # -- internals --------------------------------------------------------

    def _settle(self, flows: Iterable[Flow]) -> None:
        """Advance the given flows' byte counters to the current instant."""
        now = self.sim.now
        for flow in flows:
            dt = now - flow._last_settled
            if dt > 0 and flow.rate > 0:
                moved = min(flow.remaining, flow.rate * dt)
                flow.remaining -= moved
                if self.billing is not None:
                    self.billing.record(flow.src, flow.dst, moved)
            flow._last_settled = now

    def _maxmin_rates(self, order: List[Flow]) -> None:
        """Weighted progressive-filling max-min fair allocation over
        ``order``, one bottleneck component as a flow-id-sorted list.

        All unfrozen flows' rates rise proportionally to their weights;
        when a link saturates, the flows crossing it freeze at the
        current fill level.  A per-flow rate cap is a virtual link
        carrying only that flow.

        A component whose flows all cross the same single link with no
        rate cap fills in one round: ``fill = bandwidth / wsum``, with
        ``wsum`` the weights summed from 0.0 in flow-id order, saturates
        the link, and each flow gets ``fill * weight``.
        """
        if not order:
            return
        # Map each (physical or virtual) link to the flows crossing it.
        link_flows: Dict[object, Set[Flow]] = {}
        residual: Dict[object, float] = {}
        wsum: Dict[object, float] = {}
        for flow in order:
            for link in flow.links:
                crossing = link_flows.get(link)
                if crossing is None:
                    crossing = link_flows[link] = set()
                    residual[link] = link.bandwidth
                    wsum[link] = 0.0
                crossing.add(flow)
                wsum[link] += flow.weight
            if flow.rate_cap is not None:
                cap_key = ("cap", flow.id)
                link_flows[cap_key] = {flow}
                residual[cap_key] = flow.rate_cap
                wsum[cap_key] = flow.weight

        unassigned = set(order)
        fill = 0.0
        while unassigned:
            # Next saturation point: smallest residual/weight-sum over
            # links still carrying unfrozen flows.
            delta = math.inf
            for link, crossing in link_flows.items():
                if crossing:
                    delta = min(delta, residual[link] / wsum[link])
            if not math.isfinite(delta):  # pragma: no cover - defensive
                break
            fill += delta
            saturated = []
            for link, crossing in link_flows.items():
                if crossing:
                    residual[link] -= delta * wsum[link]
                    if residual[link] <= EPSILON * max(1.0, _link_scale(link)):
                        saturated.append(link)
            frozen: Set[Flow] = set()
            for link in saturated:
                frozen |= link_flows[link]
            if not frozen:  # pragma: no cover - numerical safety
                frozen = set(unassigned)
            for flow in frozen:
                flow.rate = fill * flow.weight
                unassigned.discard(flow)
                for link in flow.links:
                    link_flows[link].discard(flow)
                    wsum[link] -= flow.weight
                if flow.rate_cap is not None:
                    cap_key = ("cap", flow.id)
                    link_flows[cap_key].discard(flow)
                    wsum[cap_key] -= flow.weight

    def _schedule_completions(self, flows: Iterable[Flow]) -> None:
        """(Re)arm the completion of each of ``flows``, in order, at its
        current rate: withdraw its wake and give it a new one at ``now +
        eta`` under a seq drawn now.

        Re-arming is skipped when the rate is unchanged within EPSILON:
        the deadline the live wake already carries is
        ``armed_time + remaining_at_arm/rate == now + remaining_now/rate``
        for an unchanged rate, so re-arming would be pure churn (any
        sub-EPSILON drift is absorbed by the re-check in
        :meth:`_on_wake`).
        """
        sim = self.sim
        now = sim.now
        armed = skipped = 0
        for flow in flows:
            rate = flow.rate
            wake = flow._wake
            if wake is not None:
                if (rate > 0 and abs(rate - flow._armed_rate)
                        <= EPSILON * (rate if rate > 1.0 else 1.0)):
                    skipped += 1
                    continue
                wake.deschedule()
                flow._wake = None
            if rate <= 0:  # starved; re-armed by the next recompute
                continue
            eta = float(flow.remaining / rate)
            if not 0.0 <= eta < math.inf:
                raise ValueError(
                    f"delay must be finite and non-negative, got {eta}")
            flow._armed_rate = rate
            self._wake(flow, now + eta, sim.reserve_seq())
            armed += 1
        self.stats["timers_armed"] += armed
        self.stats["timers_skipped"] += skipped

    def _disarm(self, flow: Flow) -> None:
        """Withdraw the arm of ``flow``, if any.  A flow in a lane leaves
        it (found there by its unsettled remainder).

        A lane left by its woken flow has no wake until the caller gives
        it one, or marks its link dirty: the batched recompute runs at
        this instant before any wake could be due (URGENT sorts first)
        and re-arms or unlanes the rest, so a wake given now would only
        be withdrawn (one per step of a departure cascade)."""
        wake = flow._wake
        if wake is not None:
            wake.deschedule()
            flow._wake = None
        lane = flow._lane
        if lane is None:
            return
        flow._lane = None
        byrem = lane.byrem
        del byrem[bisect_left(byrem, (flow.remaining, flow.id), key=_REM_ID)]
        if not byrem:
            del self._lanes[lane.link]
            return
        lane.gone.append(flow)
        if lane.woken is flow:
            lane.woken = None

    def _wake(self, flow: Flow, time: float, seq: int) -> None:
        """Queue the wake of ``flow``'s arm ``(time, seq)``."""
        wake = flow._wake = Event(self.sim)
        wake._ok = True
        wake._value = flow
        wake.callbacks.append(self._wake_cb)
        self.sim.schedule_at(wake, time, seq)

    def _on_wake(self, wake: Event) -> None:
        """Kernel callback of a wake: its flow's arm is due.  Finish the
        flow, or re-arm it on numerical drift.

        Drift whose re-arm would land on this very instant (the leftover
        drains in less than the clock's resolution here) finishes the
        flow instead: re-arming it would fire again with nothing moved,
        forever."""
        flow = wake._value
        flow._wake = None  # fired: nothing left to withdraw
        lane = flow._lane
        self._disarm(flow)  # this arm has fired; never skip-reuse it
        self._settle((flow,))
        now = self.sim.now
        if (flow.remaining > EPSILON * max(1.0, flow.size)
                and now + flow.remaining / flow.rate != now):
            # Numerical drift: rearm, alone.  No batch follows, so the
            # rest of its lane needs its wake now.
            if lane is not None and lane.byrem:
                self._wake_lane(lane)
            self._schedule_completions((flow,))
        else:
            flow.remaining = 0.0
            self._active.discard(flow)
            latency = sum(l.latency for l in flow.path)
            self._finish_after_latency(flow, latency)
            self._unindex(flow)
            self._mark_dirty(links=flow.links)

    def _finish_after_latency(self, flow: Flow, latency: float) -> None:
        def fire(_ev):
            flow.finished_at = self.sim.now
            flow.done.succeed(flow)
            if self.taps:
                record = FlowRecord(flow)
                for tap in self.taps:
                    tap(record)

        # One schedule() either way (zero latency fires at now, NORMAL),
        # so the kernel sequence stream — and determinism — is unchanged.
        self.sim.call_in(latency, fire)


def _link_scale(link) -> float:
    """Bandwidth of a real or virtual link (for epsilon scaling)."""
    return getattr(link, "bandwidth", 1.0)
