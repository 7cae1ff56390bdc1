"""Transparent migration detection and overlay reconfiguration (§III-B).

The thesis modified ViNe so inter-cloud live migration does not
interrupt communications.  The mechanism, reproduced here:

1. **Detection** — when the migrated VM resumes at the destination, it
   emits a *gratuitous ARP* (standard guest behavior).  The destination
   site's ViNe router observes it and learns a VM with a known overlay
   address has appeared locally (``detection_delay`` models ARP
   propagation and the router noticing).
2. **Reconfiguration** — the destination router updates its own table
   immediately, then pushes a location update to every other ViNe
   router; each update lands after the control message's WAN latency.
3. Meanwhile the *source-side ARP proxy* answers for the departed VM so
   same-LAN peers hand their packets to the router rather than timing
   out on ARP — modeled by peers stalling (resolver returns ``None``)
   instead of failing hard, until their router learns the new location.

Disable reconfiguration (``enabled=False``) to reproduce the paper's
baseline: routers keep stale entries forever and every cross-site
connection of the migrated VM breaks — the motivating failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..network.nat import Endpoint
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.process import Process
from .overlay import ViNeOverlay


@dataclass
class ReconfigurationRecord:
    """Telemetry of one migration fix-up."""

    vm_name: str
    old_site: str
    new_site: str
    detected_at: float
    completed_at: float  #: when the *last* router learned the new location
    per_router_delay: dict = field(default_factory=dict)

    @property
    def reconfiguration_latency(self) -> float:
        """Detection to full convergence."""
        return self.completed_at - self.detected_at


class MigrationReconfigurator:
    """Watches for migrated VMs and repairs overlay routing."""

    def __init__(self, sim: Simulator, overlay: ViNeOverlay,
                 detection_delay: float = 0.05,
                 enabled: bool = True):
        self.sim = sim
        self.overlay = overlay
        #: Gratuitous-ARP propagation + router pickup time.
        self.detection_delay = detection_delay
        #: When False, migrations are never repaired (baseline mode).
        self.enabled = enabled
        self.records: List[ReconfigurationRecord] = []

    def vm_migrated(self, vm: Endpoint, old_site: str,
                    span=None) -> Optional[Process]:
        """Notify that ``vm`` just resumed at ``vm.site`` (its new site).

        Returns the reconfiguration process (or ``None`` when disabled).
        Call this right after the migration's switch-over — it is the
        moment the guest broadcasts its gratuitous ARP.  ``span`` is an
        optional parent :class:`~repro.obs.Span` (the migration that
        triggered the fix-up).
        """
        if not self.enabled:
            return None
        # The source-site router starts proxying ARP for the departed VM
        # the instant it leaves (its LAN peers keep a next hop while
        # routing is stale).
        old_router = self.overlay.routers.get(old_site)
        if old_router is not None:
            old_router.arp_proxy.engage(vm.address.host, self.sim.now)
        return self.sim.process(self._reconfigure(vm, old_site, span),
                                name=f"vine-reconfig-{vm.name}")

    def _reconfigure(self, vm: Endpoint, old_site: str, parent_span=None):
        from .arp import emit_gratuitous_arp

        tracer = tracer_of(self.sim)
        rspan = tracer.start(f"vine-reconfig:{vm.name}", parent=parent_span,
                             track=f"vine:{vm.name}", phase="vine-reconfig",
                             vm=vm.name)
        new_site = vm.site
        host = vm.address.host
        old_router = self.overlay.routers.get(old_site)
        # The resumed guest broadcasts a gratuitous ARP; the local ViNe
        # router observes it after LAN latency + pickup time.
        dspan = tracer.start("arp-detect", parent=rspan)
        garp = yield emit_gratuitous_arp(
            self.sim, self.overlay.topology, vm.name, host, new_site,
            router_pickup=self.detection_delay,
        )
        detected_at = garp.observed_at
        dspan.end()
        record = ReconfigurationRecord(
            vm_name=vm.name, old_site=old_site, new_site=new_site,
            detected_at=detected_at, completed_at=detected_at,
        )
        # The local router learns instantly from the gratuitous ARP.
        local = self.overlay.router_of(new_site)
        local.update(host, new_site)
        record.per_router_delay[new_site] = 0.0

        # Push updates to every other router; each lands after its own
        # control-path latency.  Spawn one updater per router and wait.
        pspan = tracer.start("push-updates", parent=rspan,
                             routers=max(0, len(self.overlay.routers) - 1))
        updaters = []
        for name, router in self.overlay.routers.items():
            if name == new_site:
                continue
            delay = (self.overlay.topology.path_latency(new_site, name)
                     + router.processing_delay)
            updaters.append(self.sim.process(
                self._push_update(router, host, new_site, delay, record,
                                  pspan)
            ))
        if updaters:
            yield self.sim.all_of(updaters)
        pspan.end()
        # The old-site router now knows the new location: withdraw proxy.
        if old_router is not None:
            old_router.arp_proxy.release(host)
        record.completed_at = self.sim.now
        rspan.set(latency=record.reconfiguration_latency).end()
        self.records.append(record)
        return record

    def _push_update(self, router, host: int, new_site: str, delay: float,
                     record: ReconfigurationRecord, span=None):
        yield self.sim.timeout(delay)
        router.update(host, new_site)
        record.per_router_delay[router.site] = self.sim.now - record.detected_at
        if span is not None:
            span.event("router-updated", router=router.site)
