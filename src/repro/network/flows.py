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

Completion deadlines live off the kernel queue (SimGrid's lazy action
update).  Re-arming a flow makes a new ``(time, seq, flow)`` *arm* under
a seq drawn as :meth:`~repro.simkernel.Simulator.reserve_seq` would and
makes the old one stale.  The arms of one re-rate are sorted into a
*run*, and a per-scheduler min-heap holds one entry per run, keyed by
its earliest retained arm.  Only the earliest live arm needs a kernel
entry — its *wake* — carrying exactly the key ``(time, NORMAL, seq)`` a
per-flow timer armed at that moment would have had, so the kernel
dispatches completions in the same order as if every arm were queued,
while re-rating a large component costs one sort and one heap push.

A component whose flows all cross one and the same link, with no rate
cap, is a weighted processor-sharing queue: progressive filling ends in
one round, which is computed directly with the general loop's exact
float operations, so its rates are bit-identical.

Per-flow rate caps (e.g. a VM NIC, or a deliberately throttled
migration) are modeled as virtual single-flow links, which integrates
them exactly into the water-filling computation.  Flows may carry a
``weight`` (default 1.0); rates are assigned proportionally to weight at
each fill level (weighted max-min).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..simkernel import Event, Simulator, URGENT
from ..simkernel.queues import COMPACT_FRACTION, COMPACT_MIN
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
        "links", "_last_settled", "_run", "_armed_rate",
        "_wake",
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
        self._run: Optional[_Run] = None  # the run holding the live arm
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


def _flow_id(flow: Flow) -> int:
    return flow.id


class _Run:
    """The arms of one re-arming pass: ``(time, seq, flow)`` tuples
    sorted descending, so the earliest is last, and the count of those
    still live.  An arm is live while its flow's ``_run`` is this run
    (a pass arms a flow at most once)."""

    __slots__ = ("arms", "live")

    def __init__(self):
        self.arms: list = []
        self.live = 0


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
        # Completion deadlines: a min-heap of (time, seq, run) entries,
        # each run keyed by its last (earliest) arm; ``_retained`` arms
        # in all runs, ``_stale`` of them superseded.
        self._deadlines: list = []
        self._retained = 0
        self._stale = 0
        self._wake_cb = self._on_wake  # one bound method for every wake
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
        latency = sum(l.latency for l in path)
        if size == 0:
            self._finish_after_latency(flow, latency)
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
        # Bill the cancelled flow up to this instant; its neighbours keep
        # their (still valid) rates until the batched recompute.
        self._settle((flow,))
        self._active.discard(flow)
        self._disarm(flow)
        flow.done.fail(FlowCancelled(f"{flow!r} cancelled"))
        flow.done.defused = True  # cancellation is never a crash
        self._unindex(flow)
        self._mark_dirty(links=flow.links)
        self._wake_head()

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
        component = self._component(flows, links)
        if not component:
            return
        self.stats["batches"] += 1
        self.stats["flows_rerated"] += len(component)
        # One flow-id order for settling (billing sums), filling and
        # re-arming: set order would follow memory addresses.
        order = sorted(component, key=_flow_id)
        self._settle(order)
        self._maxmin_rates(order)
        self._schedule_completions(order)
        self._wake_head()

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

        A component whose flows all cross the same single link and carry
        no rate cap is filled in its one round directly (see
        :meth:`_one_round`).
        """
        if not order:
            return
        if self._one_round(order):
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

    @staticmethod
    def _one_round(order: List[Flow]) -> bool:
        """Rate ``order`` if it is one weighted processor-sharing queue;
        return whether it was.

        When every flow crosses the same one link and none has a rate
        cap, progressive filling ends after its first round: the link's
        residual ``bw - (bw / wsum) * wsum`` is within a few ulps of
        zero, so the link saturates and every flow freezes at ``fill *
        weight`` with ``fill = 0.0 + bw / wsum``.  Computing that round
        directly gives bit-identical rates: ``wsum`` is summed from 0.0
        left to right in flow-id order, as the general loop does
        (``sum()`` would not do: it compensates float sums since Python
        3.12).  An infinite ``fill`` is left to the general loop.
        """
        links = order[0].links
        if len(links) != 1:
            return False
        wsum = 0.0
        for flow in order:
            if flow.links != links or flow.rate_cap is not None:
                return False
            wsum += flow.weight
        fill = links[0].bandwidth / wsum
        if fill == math.inf:
            return False
        for flow in order:
            flow.rate = fill * flow.weight
        return True

    def _schedule_completions(self, flows: Iterable[Flow]) -> None:
        """(Re)arm the completion deadline of each of ``flows``, in
        order, at its current rate.

        An arm is ``(now + eta, seq, flow)``, with ``seq`` drawn from
        the kernel exactly where a per-flow timer would have drawn its
        own (:meth:`~repro.simkernel.Simulator.reserve_seq`, inlined
        here); the flow's previous arm goes stale (:meth:`_disarm`,
        inlined).  The pass's arms are sorted once into a :class:`_Run`
        that enters the deadline heap as one entry keyed by its earliest
        arm.  The kernel hears of a new arm only if it becomes the
        earliest live one (:meth:`_wake_head`).

        Re-arming is skipped when the rate is unchanged within EPSILON:
        the deadline the live arm already carries is
        ``armed_time + remaining_at_arm/rate == now + remaining_now/rate``
        for an unchanged rate, so re-arming would be pure churn (any
        sub-EPSILON drift is absorbed by the re-check in
        :meth:`_on_wake`).
        """
        sim = self.sim
        now = sim.now
        seq = sim._seq
        run = _Run()
        arms = run.arms
        stale = skipped = 0
        for flow in flows:
            rate = flow.rate
            old = flow._run
            if old is not None:
                if (rate > 0 and abs(rate - flow._armed_rate)
                        <= EPSILON * (rate if rate > 1.0 else 1.0)):
                    skipped += 1
                    continue
                old.live -= 1
                flow._run = None
                wake = flow._wake
                if wake is not None:
                    wake.deschedule()
                    flow._wake = None
                stale += 1
            if rate <= 0:  # starved; re-armed by the next recompute
                continue
            eta = float(flow.remaining / rate)
            if not 0.0 <= eta < math.inf:
                sim._seq = seq
                raise ValueError(
                    f"delay must be finite and non-negative, got {eta}")
            seq += 1
            arms.append((now + eta, seq, flow))
            flow._run = run
            flow._armed_rate = rate
        sim._seq = seq
        self._stale += stale
        if arms:
            arms.sort(reverse=True)
            run.live = len(arms)
            self._retained += run.live
            heapq.heappush(self._deadlines, (arms[-1][0], arms[-1][1], run))
        self.stats["timers_armed"] += len(arms)
        self.stats["timers_skipped"] += skipped

    def _disarm(self, flow: Flow) -> None:
        """Supersede the live arm of ``flow``, if any: it goes stale,
        never to be live again, and its wake is withdrawn."""
        run = flow._run
        if run is not None:
            run.live -= 1
            flow._run = None
            if flow._wake is not None:
                flow._wake.deschedule()
                flow._wake = None
            self._stale += 1

    def _wake_head(self) -> None:
        """Give the earliest live arm its wake: a kernel entry under the
        arm's own key ``(time, NORMAL, seq)``.

        Called at the end of every operation that arms or disarms, so
        the earliest live arm always has a wake and no completion is
        ever dispatched late.  A wake stays queued until its own arm is
        superseded, even when an earlier arm takes the top: superseded
        arms never come back, so every queued key stays unique and
        every wake that fires is a real completion check.

        Each heap entry is a run keyed by its earliest retained arm, so
        the top run holds the earliest arm of all.  A run with no live
        arm left is dropped whole; otherwise a stale head is popped off
        together with every stale arm behind it and the run is re-keyed
        by its new, live head with one ``heapreplace``.  Stale arms
        deeper in a run wait there, and every run is compacted by the
        kernel queues' rule once stale arms pass half of those retained.
        """
        heap = self._deadlines
        if (self._stale > self._retained * COMPACT_FRACTION
                and self._retained >= COMPACT_MIN):
            self._compact()
        while heap:
            run = heap[0][2]
            arms = run.arms
            if not run.live:
                heapq.heappop(heap)
                self._stale -= len(arms)
                self._retained -= len(arms)
                continue
            arm = arms[-1]
            flow = arm[2]
            if flow._run is run:
                if flow._wake is None:
                    wake = flow._wake = Event(self.sim)
                    wake._ok = True
                    wake._value = flow
                    wake.callbacks.append(self._wake_cb)
                    self.sim.schedule_at(wake, arm[0], arm[1])
                return
            dropped = 0
            while arm[2]._run is not run:  # stops at a live arm
                arms.pop()
                dropped += 1
                arm = arms[-1]
            self._stale -= dropped
            self._retained -= dropped
            heapq.heapreplace(heap, (arm[0], arm[1], run))

    def _compact(self) -> None:
        """Drop every stale arm of every run and rebuild the heap."""
        entries = []
        for _time, _seq, run in self._deadlines:
            if run.live:
                run.arms = [arm for arm in run.arms if arm[2]._run is run]
                entries.append((run.arms[-1][0], run.arms[-1][1], run))
        heapq.heapify(entries)
        self._deadlines[:] = entries
        self._retained = sum(entry[2].live for entry in entries)
        self._stale = 0

    def _on_wake(self, wake: Event) -> None:
        """Kernel callback of a wake: its flow's live arm is due.  Finish
        the flow, or re-arm it on numerical drift."""
        flow = wake._value
        flow._wake = None  # fired: nothing left to withdraw
        self._settle((flow,))
        self._disarm(flow)  # this arm has fired; never skip-reuse it
        if flow.remaining > EPSILON * max(1.0, flow.size):
            # Numerical drift: rearm.
            self._schedule_completions((flow,))
        else:
            flow.remaining = 0.0
            self._active.discard(flow)
            latency = sum(l.latency for l in flow.path)
            self._finish_after_latency(flow, latency)
            self._unindex(flow)
            self._mark_dirty(links=flow.links)
        self._wake_head()

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
