"""Virtual-cluster migration coordination.

The paper's headline use case is migrating a *whole virtual cluster*
between clouds over a WAN.  The coordinator launches the member VMs'
live migrations (concurrently, or staggered in waves to bound link
pressure), all sharing one destination content registry — so the OS and
application pages common to the cluster cross the WAN exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..hypervisor.host import PhysicalHost
from ..hypervisor.migration import (
    LiveMigrator,
    MigrationConfig,
    MigrationStats,
)
from ..hypervisor.vm import VirtualMachine
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.process import Process


@dataclass
class ClusterMigrationStats:
    """Aggregate of one virtual-cluster migration."""

    per_vm: List[MigrationStats] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Wall-clock time from first start to last finish."""
        return self.finished_at - self.started_at

    @property
    def total_wire_bytes(self) -> float:
        return sum(s.wire_bytes + s.disk_wire_bytes for s in self.per_vm)

    @property
    def total_payload_bytes(self) -> float:
        return sum(s.payload_bytes for s in self.per_vm)

    @property
    def total_downtime(self) -> float:
        return sum(s.downtime for s in self.per_vm)

    @property
    def max_downtime(self) -> float:
        return max((s.downtime for s in self.per_vm), default=0.0)

    @property
    def bandwidth_saving(self) -> float:
        """Fraction of logical bytes the WAN never saw."""
        total = self.total_payload_bytes
        if total == 0:
            return 0.0
        memory_wire = sum(s.wire_bytes for s in self.per_vm)
        return 1.0 - memory_wire / total


class ClusterMigrationCoordinator:
    """Migrates groups of VMs with shared deduplication state.

    An optional
    :class:`~repro.vine.reconfig.MigrationReconfigurator` lets the
    coordinator run the overlay fix-up (gratuitous-ARP detection +
    routing update) as part of each member's migration, so a cluster
    move is only "done" once connections would survive — and the ViNe
    phase shows up in the migration's trace.
    """

    def __init__(self, sim: Simulator, migrator: LiveMigrator,
                 reconfigurator=None):
        self.sim = sim
        self.migrator = migrator
        self.reconfigurator = reconfigurator

    def migrate_cluster(self, vms: Sequence[VirtualMachine],
                        dst_hosts: Sequence[PhysicalHost],
                        config: Optional[MigrationConfig] = None,
                        wave_size: Optional[int] = None) -> Process:
        """Migrate ``vms[i]`` to ``dst_hosts[i]``.

        ``wave_size`` limits concurrency (``None`` = all at once); waves
        still share the registry, so later waves dedup against earlier
        ones.  Yield the returned process for a
        :class:`ClusterMigrationStats`.
        """
        if len(vms) != len(dst_hosts):
            raise ValueError("need exactly one destination host per VM")
        if not vms:
            raise ValueError("empty cluster")
        return self.sim.process(
            self._run(list(vms), list(dst_hosts), config, wave_size),
            name="cluster-migration",
        )

    def _migrate_one(self, vm, host, config, span):
        old_site = vm.host.site
        stats = yield self.migrator.migrate(vm, host, config, span=span)
        recon = self.reconfigurator
        if (recon is not None and getattr(vm, "has_address", False)
                and vm.address.host in recon.overlay.members):
            proc = recon.vm_migrated(vm, old_site, span=span)
            if proc is not None:
                yield proc
        return stats

    def _run(self, vms, dst_hosts, config, wave_size):
        tracer = tracer_of(self.sim)
        cspan = tracer.start("cluster-migration", track="cluster-migration",
                             vms=len(vms))
        stats = ClusterMigrationStats(started_at=self.sim.now)
        pairs = list(zip(vms, dst_hosts))
        step = wave_size or len(pairs)
        for wave_start in range(0, len(pairs), step):
            wave = pairs[wave_start:wave_start + step]
            wspan = tracer.start(f"wave-{wave_start // step + 1}",
                                 parent=cspan, vms=len(wave))
            procs = [
                self.sim.process(
                    self._migrate_one(vm, host, config, wspan),
                    name=f"cluster-migrate-{vm.name}",
                )
                for vm, host in wave
            ]
            results = yield self.sim.all_of(procs)
            for proc in procs:
                stats.per_vm.append(results[proc])
            wspan.end()
        stats.finished_at = self.sim.now
        cspan.set(wire_bytes=stats.total_wire_bytes,
                  saving=stats.bandwidth_saving).end()
        return stats
