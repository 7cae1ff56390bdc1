"""Eager reference for the completion arming of
:class:`~repro.network.FlowScheduler`.

:class:`EagerFlowScheduler` keeps the scheduler's allocation (component
walk, flow-id-ordered settling, max-min rates) but arms completions the
plainest way: every batched recompute re-arms each flow of its
component as a kernel timer of its own, under a seq drawn from the
kernel at that moment, in flow-id order, unless the flow's rate is
unchanged within EPSILON; re-arming or disarming a flow withdraws its
timer.  It has no lanes and no processor-sharing shortcut, so a world
run with it must end with the same completions, billing, events
dispatched and kernel sequence number as with the library's scheduler,
and show the same rates after every batch.
"""

from repro.network import FlowScheduler
from repro.network.flows import EPSILON
from repro.simkernel import Event


class EagerFlowScheduler(FlowScheduler):
    """One kernel timer per armed flow (in ``flow._wake``)."""

    def _run_batch(self, _ev) -> None:
        self._batch_pending = False
        flows, links = self._dirty_flows, self._dirty_links
        self._dirty_flows, self._dirty_links = set(), set()
        component = self._component(flows, links)
        if not component:
            return
        self.stats["batches"] += 1
        self.stats["flows_rerated"] += len(component)
        order = sorted(component, key=lambda flow: flow.id)
        self._settle(order)
        self._maxmin_rates(order)
        self._schedule_completions(order)

    def _schedule_completions(self, flows) -> None:
        sim = self.sim
        for flow in flows:
            rate = flow.rate
            if flow._wake is not None:
                if (rate > 0 and abs(rate - flow._armed_rate)
                        <= EPSILON * max(rate, 1.0)):
                    continue
                self._disarm(flow)
            if rate <= 0:
                continue
            timer = Event(sim)
            timer._ok = True
            timer._value = flow
            timer.callbacks.append(self._on_wake)
            sim.schedule_at(timer, sim.now + flow.remaining / rate,
                            sim.reserve_seq())
            flow._wake = timer
            flow._armed_rate = rate

    def _disarm(self, flow) -> None:
        if flow._wake is not None:
            flow._wake.deschedule()
            flow._wake = None

    def _on_wake(self, timer) -> None:
        flow = timer._value
        flow._wake = None
        self._settle((flow,))
        now = self.sim.now
        if (flow.remaining > EPSILON * max(1.0, flow.size)
                and now + flow.remaining / flow.rate != now):
            self._schedule_completions((flow,))
            return
        flow.remaining = 0.0
        self._active.discard(flow)
        self._finish_after_latency(flow, sum(l.latency for l in flow.path))
        self._unindex(flow)
        self._mark_dirty(links=flow.links)
