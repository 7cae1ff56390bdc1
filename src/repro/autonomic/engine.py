"""The autonomic adaptation engine.

Closes the loop the paper's building blocks open: traffic matrices from
the detection framework feed the communication-aware planner; the
resulting placement is executed with inter-cloud live migrations through
the sky migration service (Shrinker + ViNe reconfiguration under the
hood); triggers from the monitors decide *when* to re-plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hypervisor.vm import VirtualMachine
from ..patterns.matrix import TrafficMatrix
from ..simkernel.process import Process
from ..sky.federation import Federation
from ..sky.migration_api import SkyMigrationService
from .monitor import AdaptationTrigger, TriggerBus
from .planner import Assignment, CommunicationAwarePlanner, cross_traffic


@dataclass
class AdaptationAction:
    """One executed relocation."""

    vm_name: str
    from_cloud: str
    to_cloud: str
    started_at: float
    finished_at: float
    wire_bytes: float


@dataclass
class AdaptationReport:
    """Outcome of one adaptation round."""

    trigger: Optional[AdaptationTrigger]
    planned: Assignment
    actions: List[AdaptationAction] = field(default_factory=list)
    cut_before: float = 0.0
    cut_after: float = 0.0

    @property
    def migrations(self) -> int:
        return len(self.actions)


class AdaptationEngine:
    """Plans and executes communication-aware relocations."""

    def __init__(self, federation: Federation,
                 planner: Optional[CommunicationAwarePlanner] = None,
                 migration_service: Optional[SkyMigrationService] = None,
                 min_improvement: float = 0.10):
        self.federation = federation
        self.planner = planner or CommunicationAwarePlanner()
        self.service = migration_service or SkyMigrationService(federation)
        #: Skip execution unless the cut shrinks by at least this factor.
        self.min_improvement = min_improvement
        self.reports: List[AdaptationReport] = []
        self.bus = TriggerBus()

    # -- planning ---------------------------------------------------------

    def current_assignment(self, vms: Sequence[VirtualMachine]) -> Assignment:
        return {vm.name: vm.site for vm in vms}

    def cloud_capacities(self, extra_headroom: int = 0) -> Dict[str, int]:
        """Capacity per cloud, counting currently-used slots as available
        to the plan (VMs may swap places)."""
        caps: Dict[str, int] = {}
        for name, cloud in self.federation.clouds.items():
            caps[name] = cloud.capacity() + len(cloud.instances) + extra_headroom
        return caps

    def plan(self, vms: Sequence[VirtualMachine],
             matrix: TrafficMatrix,
             capacities: Optional[Dict[str, int]] = None
             ) -> AdaptationReport:
        """Compute (but do not execute) a relocation plan.

        ``capacities`` restricts the clouds considered (e.g. a
        cost-aware policy excluding clouds whose price spiked); default
        is every member cloud at full headroom.
        """
        current = self.current_assignment(vms)
        if capacities is None:
            capacities = self.cloud_capacities()
        planned = self.planner.plan([vm.name for vm in vms], matrix,
                                    capacities)
        report = AdaptationReport(
            trigger=None,
            planned=planned,
            cut_before=cross_traffic(current, matrix),
            cut_after=cross_traffic(planned, matrix),
        )
        return report

    # -- execution ------------------------------------------------------

    def adapt(self, vms: Sequence[VirtualMachine], matrix: TrafficMatrix,
              trigger: Optional[AdaptationTrigger] = None,
              capacities: Optional[Dict[str, int]] = None,
              force: bool = False) -> Process:
        """Plan and, if worthwhile, execute the relocations.

        Yields the :class:`AdaptationReport`.  Migrations run
        sequentially (each through authentication, Shrinker transfer and
        overlay reconfiguration) to bound WAN pressure.  ``force``
        executes the plan even when the communication cut does not
        improve (e.g. evacuating a cloud whose price spiked).
        """
        return self.federation.sim.process(
            self._adapt(list(vms), matrix, trigger, capacities, force),
            name="adaptation",
        )

    def _adapt(self, vms: List[VirtualMachine], matrix: TrafficMatrix,
               trigger: Optional[AdaptationTrigger],
               capacities: Optional[Dict[str, int]] = None,
               force: bool = False):
        sim = self.federation.sim
        report = self.plan(vms, matrix, capacities)
        report.trigger = trigger
        self.reports.append(report)
        if not force and report.cut_before > 0:
            improvement = 1.0 - report.cut_after / report.cut_before
            if improvement < self.min_improvement:
                return report  # not worth the migration traffic
        by_name = {vm.name: vm for vm in vms}
        for vm_name, target_cloud in sorted(report.planned.items()):
            vm = by_name[vm_name]
            if vm.site == target_cloud:
                continue
            from_cloud = vm.site
            started = sim.now
            result = yield self.service.migrate_vm(vm, target_cloud)
            report.actions.append(AdaptationAction(
                vm_name=vm_name,
                from_cloud=from_cloud,
                to_cloud=target_cloud,
                started_at=started,
                finished_at=sim.now,
                wire_bytes=result.stats.wire_bytes
                + result.stats.disk_wire_bytes,
            ))
        return report
