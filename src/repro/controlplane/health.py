"""Health checks and self-healing over leased VMs.

A :class:`HealthMonitor` sweeps every active lease on a fixed period.
VMs found dead (state ``STOPPED`` while their lease is live) are cleaned
out of their cloud and either *replaced* — a fresh instance grown into
the same cluster, the job keeps running — or, when replacement is
impossible (no capacity, master VM lost) or the policy says so, the
job is *requeued* through the fair-share scheduler and its lease is
reclaimed.  Hosts can be put into *draining*: their leased VMs are
pushed off through the existing cloud-API migration path
(:class:`~repro.sky.migration_api.SkyMigrationService`, i.e. Shrinker
live migration plus ViNe reconfiguration), so maintenance never kills
work.

:class:`FailureInjector` provides the deterministic fault load the
benchmarks and tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cloud.provider import CloudError
from ..hypervisor.host import PhysicalHost
from ..hypervisor.migration import MigrationError
from ..hypervisor.vm import VirtualMachine, VMState
from ..metrics import MetricsRecorder
from ..simkernel.core import Simulator
from ..simkernel.process import Process
from ..sky.federation import Federation, FederationError
from ..sky.migration_api import SkyMigrationService
from .lease import Lease, LeaseManager
from .scheduler import FairShareScheduler
from .statemachine import record


@dataclass
class HealEvent:
    """One self-healing action, for the audit trail."""

    time: float
    lease_id: int
    vm_name: str
    action: str  # "replaced" | "requeued" | "migrated"
    detail: str = ""


class HealthMonitor:
    """Periodic VM health checks with replace-or-requeue healing."""

    def __init__(self, sim: Simulator, federation: Federation,
                 leases: LeaseManager, scheduler: FairShareScheduler,
                 metrics: MetricsRecorder, interval: float = 30.0,
                 policy: str = "replace"):
        if policy not in ("replace", "requeue"):
            raise ValueError(f"unknown heal policy {policy!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.federation = federation
        self.leases = leases
        self.scheduler = scheduler
        self.interval = interval
        self.policy = policy
        self.metrics = metrics
        self.events: List[HealEvent] = []
        self.failures_seen = 0
        self.draining: set = set()
        self._migration = SkyMigrationService(federation)
        self._proc: Optional[Process] = None
        self._running = False

    def start(self) -> Process:
        """Start the periodic sweep (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._running = True
            self._proc = self.sim.process(self._run(), name="health-monitor")
        return self._proc

    def stop(self) -> None:
        self._running = False

    # -- sweep -----------------------------------------------------------

    def _run(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if not self._running:
                return
            for lease in list(self.leases.active_leases()):
                dead = [vm for vm in lease.cluster.vms
                        if vm.state is VMState.STOPPED]
                if dead:
                    yield self.sim.process(self._heal(lease, dead),
                                           name=f"heal-{lease.id}")
            self.metrics.record("health.heals", len(self.events))

    def _heal(self, lease: Lease, dead: List[VirtualMachine]):
        self.failures_seen += len(dead)
        self.metrics.record("health.failures", self.failures_seen)
        master_lost = lease.cluster.master in dead
        # Scrub the corpses out of the cluster and their clouds first,
        # so their capacity is free for the replacement (or the requeue).
        for vm in dead:
            self.federation.terminate(vm, lease.cluster)
        if not lease.active:
            return
        if self.policy == "requeue" or master_lost or not lease.cluster.vms:
            self._requeue(lease, dead,
                          "master lost" if master_lost else "policy")
            return
        # Replace in place: grow the cluster back to strength at the
        # cheapest cloud with room.
        try:
            yield self.sim.process(
                self.scheduler.replace_nodes(lease, len(dead)),
                name=f"replace-{lease.id}")
        except (CloudError, FederationError, MigrationError):
            self._requeue(lease, dead, "replacement failed")
            return
        if not lease.active:
            return
        for vm in dead:
            self._record(lease, vm, "replaced")

    def _requeue(self, lease: Lease, dead: List[VirtualMachine],
                 detail: str) -> None:
        for vm in dead:
            self._record(lease, vm, "requeued", detail)
        self.scheduler.requeue(lease, reason=f"vm-failure: {detail}")

    def _record(self, lease: Lease, vm: VirtualMachine, action: str,
                detail: str = "") -> None:
        self.events.append(HealEvent(self.sim.now, lease.id, vm.name,
                                     action, detail))
        record(self.sim, "heal", lease.id, to=action, cause="health",
               vm=vm.name, detail=detail)

    # -- draining --------------------------------------------------------

    def drain_host(self, host: PhysicalHost) -> Process:
        """Evacuate all leased VMs from ``host`` via Shrinker live
        migration to another member cloud; yields the count moved.

        The host is also cordoned in its cloud, so placement (new
        grants, capacity headroom) excludes it until
        :meth:`undrain_host`."""
        self.draining.add(host.name)
        self.federation.cloud_at(host.site).cordon(host.name)
        return self.sim.process(self._drain(host), name=f"drain-{host.name}")

    def undrain_host(self, host: PhysicalHost) -> None:
        """Return a drained host to placement service."""
        self.draining.discard(host.name)
        self.federation.cloud_at(host.site).uncordon(host.name)

    def _drain(self, host: PhysicalHost):
        moved = 0
        leased = {vm.name: lease for lease in self.leases.active_leases()
                  for vm in lease.cluster.vms}
        for vm in [vm for vm in host.vms if vm.name in leased]:
            dst = self._drain_destination(host)
            if dst is None:
                break
            try:
                yield self._migration.migrate_vm(vm, dst)
            except (MigrationError, FederationError):
                continue
            moved += 1
            self._record(leased[vm.name], vm, "migrated", f"-> {dst}")
        return moved

    def _drain_destination(self, host: PhysicalHost) -> Optional[str]:
        """Cheapest other cloud with headroom (None if nowhere to go)."""
        candidates = sorted(
            (c for name, c in self.federation.clouds.items()
             if name != host.site and c.capacity() > 0),
            key=lambda c: (c.pricing.on_demand_hourly, c.name),
        )
        return candidates[0].name if candidates else None


class FailureInjector:
    """Kills leased VMs at a Poisson-ish deterministic rate (for tests
    and the self-healing benchmark)."""

    def __init__(self, sim: Simulator, leases: LeaseManager,
                 rng: np.random.Generator, rate: float = 1 / 600.0,
                 tick: float = 30.0, spare_masters: bool = False):
        if rate < 0 or tick <= 0:
            raise ValueError("rate must be >= 0 and tick positive")
        self.sim = sim
        self.leases = leases
        self.rng = rng
        #: Expected failures per leased VM per second.
        self.rate = rate
        self.tick = tick
        self.spare_masters = spare_masters
        self.killed: List[str] = []
        self.active = True
        self.process = sim.process(self._run(), name="failure-injector")

    def stop(self) -> None:
        self.active = False

    def _run(self):
        while self.active:
            yield self.sim.timeout(self.tick)
            if not self.active:
                return
            victims = []
            for lease in self.leases.active_leases():
                for vm in lease.cluster.vms:
                    if self.spare_masters and vm is lease.cluster.master:
                        continue
                    if vm.state is VMState.RUNNING:
                        victims.append(vm)
            if not victims:
                continue
            p = 1.0 - np.exp(-self.rate * self.tick)
            draws = self.rng.random(len(victims))
            for vm, draw in zip(victims, draws):
                if draw < p:
                    vm.stop()
                    self.killed.append(vm.name)
