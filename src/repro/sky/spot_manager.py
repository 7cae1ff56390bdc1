"""Migratable spot instances (paper §IV).

    "...a new kind of resources: migratable spot instances which,
    instead of being killed when their resource allocation is canceled,
    are allowed to migrate to a different cloud."

The :class:`MigratableSpotManager` installs itself as a spot market's
``reclaim_handler``.  When a reclamation warning arrives it:

1. picks an escape destination — the cheapest member cloud with
   capacity, excluding the reclaiming one;
2. estimates whether the live migration fits in the grace window (a
   migration that cannot finish in time would be killed mid-flight, so
   it does not start);
3. runs the cloud-API-level migration (authentication, Shrinker,
   overlay reconfiguration, billing hand-off) and reports the rescue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..cloud.provider import Cloud, CloudError
from ..cloud.spot import SpotInstance, SpotMarket
from ..hypervisor.host import CapacityError
from ..hypervisor.migration import MigrationConfig, MigrationError
from .federation import Federation, FederationError
from .migration_api import SkyMigrationService

#: Attempt an escape only if the estimated migration time is below
#: SAFETY_FACTOR * the market's grace window: the estimate is
#: optimistic (one pass, no dirtying), so keep a margin.
SAFETY_FACTOR = 0.8


@dataclass
class RescueRecord:
    """Telemetry of one reclamation response."""

    vm_name: str
    from_cloud: str
    to_cloud: Optional[str]
    attempted: bool
    succeeded: bool
    migration_duration: float = 0.0


class MigratableSpotManager:
    """Escapes spot reclamations by live-migrating to another cloud."""

    def __init__(self, federation: Federation,
                 migration_service: Optional[SkyMigrationService] = None):
        self.federation = federation
        self.service = migration_service or SkyMigrationService(federation)
        self.records: List[RescueRecord] = []

    def attach(self, market: SpotMarket) -> None:
        """Install this manager as the market's reclamation handler."""
        market.reclaim_handler = lambda inst: self.rescue(market, inst)

    def rescue(self, market: SpotMarket, inst: SpotInstance,
               exclude: Iterable[str] = ()):
        """Attempt an escape migration for one reclamation warning
        (process; yields True on success).  ``exclude`` names extra
        clouds to rule out as destinations (e.g. ones whose own markets
        are mid-reclamation)."""
        return self.federation.sim.process(
            self._rescue(market, inst, frozenset(exclude)),
            name=f"rescue-{inst.vm.name}",
        )

    def feasible(self, inst: SpotInstance, grace: float,
                 exclude: Iterable[str] = ()) -> bool:
        """Would a rescue be attempted right now?  True when a
        destination exists and the estimated migration fits the grace
        window with the safety margin."""
        dst = self._pick_destination(inst, frozenset(exclude))
        if dst is None:
            return False
        return (self._estimate_duration(inst, dst)
                <= SAFETY_FACTOR * grace)

    # -- internals ---------------------------------------------------------

    def _pick_destination(self, inst: SpotInstance,
                          exclude: frozenset = frozenset()
                          ) -> Optional[Cloud]:
        candidates = [
            c for c in self.federation.clouds.values()
            if c is not inst.cloud and c.name not in exclude
            and c.capacity() >= 1
        ]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda c: (c.pricing.on_demand_hourly, c.name))

    def _estimate_duration(self, inst: SpotInstance, dst: Cloud) -> float:
        """Optimistic single-pass estimate: authentication handshake plus
        state size / path bandwidth."""
        vm = inst.vm
        path = self.federation.topology.path(vm.site, dst.site.name)
        bandwidth = min(link.bandwidth for link in path)
        latency = sum(link.latency for link in path)
        state = vm.memory.size_bytes
        if vm.disk is not None:
            state += vm.disk.materialized_bytes
        auth = self.service.crypto_handshake_time + 4 * latency
        return auth + state / bandwidth

    def _rescue(self, market: SpotMarket, inst: SpotInstance,
                exclude: frozenset):
        dst = self._pick_destination(inst, exclude)
        record = RescueRecord(
            vm_name=inst.vm.name,
            from_cloud=inst.cloud.name,
            to_cloud=dst.name if dst else None,
            attempted=False,
            succeeded=False,
        )
        self.records.append(record)
        if dst is None:
            return False
        estimate = self._estimate_duration(inst, dst)
        if estimate > SAFETY_FACTOR * market.reclaim_grace:
            return False  # would be killed mid-migration; don't try
        record.attempted = True
        started = self.federation.sim.now
        # Storage must move: CoW overlays are small, so this fits the
        # grace window when the base image exists at the destination.
        config = MigrationConfig(migrate_storage=True)
        try:
            yield self.service.migrate_vm(inst.vm, dst.name, config)
        except (MigrationError, FederationError, CloudError, CapacityError):
            return False  # lost the race (capacity, concurrent teardown)
        record.migration_duration = self.federation.sim.now - started
        record.succeeded = True
        inst.rescued_to = dst
        return True

    @property
    def rescues(self) -> int:
        return sum(1 for r in self.records if r.succeeded)
