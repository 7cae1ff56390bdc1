"""The unified dynamic-infrastructure framework (paper §IV, last goal).

    "Finally, we plan to federate all these systems into a unified
    infrastructure framework leveraging inter-cloud live migration to
    autonomically adapt applications to changes in the environment."

:class:`DynamicInfrastructure` is that integration: one object wiring
the federation (provisioning, overlay, Shrinker migration), an always-on
transparent traffic sniffer, the trigger bus with its monitors, and a
per-cluster **adaptation daemon** that periodically re-plans placement
from the *recent* traffic window and executes worthwhile relocations —
while deadline-driven elastic MapReduce runs on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .autonomic.engine import AdaptationEngine, AdaptationReport
from .autonomic.monitor import TriggerBus
from .controlplane.plane import ControlPlane
from .patterns.capture import HypervisorSniffer
from .patterns.matrix import TrafficMatrix
from .simkernel.process import Process
from .sky.virtual_cluster import VirtualCluster
from .testbeds import Testbed


@dataclass
class DaemonState:
    """Bookkeeping of one cluster's adaptation daemon."""

    cluster: VirtualCluster
    interval: float
    #: Last observed cumulative volume per pair (for window deltas).
    baseline: Dict[Tuple[str, str], float] = field(default_factory=dict)
    reports: List[AdaptationReport] = field(default_factory=list)
    rounds: int = 0
    active: bool = True
    process: Optional[Process] = None


class DynamicInfrastructure:
    """Everything wired together, ready to adapt.

    Parameters
    ----------
    testbed:
        A :class:`repro.testbeds.Testbed` (clouds + federation + flows).
    min_improvement:
        Cut-improvement threshold below which a planned relocation is
        not worth its migration traffic.
    """

    def __init__(self, testbed: Testbed, min_improvement: float = 0.15):
        self.testbed = testbed
        self.sim = testbed.sim
        self.federation = testbed.federation
        #: Always-on transparent capture of VM-attributed traffic.
        self.sniffer = HypervisorSniffer(testbed.scheduler)
        self.engine = AdaptationEngine(self.federation,
                                       min_improvement=min_improvement)
        self.bus = TriggerBus()
        self._daemons: Dict[str, DaemonState] = {}
        self._control_plane: Optional[ControlPlane] = None

    # -- provisioning (delegates to the federation) ----------------------

    def create_cluster(self, n: int, **kwargs) -> Process:
        """Provision a cross-cloud virtual cluster (see
        :meth:`Federation.create_virtual_cluster`)."""
        return self.federation.create_virtual_cluster(
            self.testbed.image_name, n, **kwargs)

    # -- multi-tenant control plane ---------------------------------------

    def control_plane(self, **kwargs) -> ControlPlane:
        """The infrastructure's job-submission layer (created and
        started on first access; see
        :class:`repro.controlplane.ControlPlane` for the knobs)."""
        if self._control_plane is None:
            self._control_plane = ControlPlane(
                self.sim, self.federation, self.testbed.image_name,
                **kwargs).start()
        elif kwargs:
            raise ValueError("control plane already created; "
                             "configuration can no longer change")
        return self._control_plane

    # -- autonomic adaptation --------------------------------------------

    def watch(self, cluster: VirtualCluster,
              interval: float = 600.0) -> DaemonState:
        """Start the adaptation daemon for ``cluster``.

        Every ``interval`` seconds the daemon takes the traffic the
        sniffer attributed to the cluster *since the previous round*
        (a sliding window, so stale history does not pin placement),
        plans with the communication-aware planner, and executes the
        relocations when the cut improves enough.
        """
        if cluster.name in self._daemons:
            raise ValueError(f"already watching {cluster.name!r}")
        state = DaemonState(cluster=cluster, interval=interval)
        state.process = self.sim.process(
            self._daemon(state), name=f"adapt-daemon-{cluster.name}")
        self._daemons[cluster.name] = state
        return state

    def unwatch(self, cluster: VirtualCluster) -> None:
        """Stop adapting ``cluster``."""
        state = self._daemons.pop(cluster.name, None)
        if state is not None:
            state.active = False

    def window_matrix(self, state: DaemonState) -> TrafficMatrix:
        """Traffic attributed to the cluster since the last round."""
        members = {vm.name for vm in state.cluster.vms}
        window = TrafficMatrix()
        current = self.sniffer.matrix.pairs()
        for pair, total in current.items():
            src, dst = pair
            if src not in members or dst not in members:
                continue
            delta = total - state.baseline.get(pair, 0.0)
            if delta > 0:
                window.record(src, dst, delta)
            state.baseline[pair] = total
        return window

    def _daemon(self, state: DaemonState):
        while state.active:
            yield self.sim.timeout(state.interval)
            if not state.active:
                return
            window = self.window_matrix(state)
            state.rounds += 1
            if window.total_bytes == 0:
                continue
            report = yield self.engine.adapt(state.cluster.vms, window)
            state.reports.append(report)

    # -- reporting --------------------------------------------------------

    @property
    def total_adaptations(self) -> int:
        return sum(len(s.reports) for s in self._daemons.values())

    def migrations_executed(self) -> int:
        return sum(r.migrations for s in self._daemons.values()
                   for r in s.reports)

    def __repr__(self):
        return (f"<DynamicInfrastructure clouds={sorted(self.federation.clouds)} "
                f"watched={sorted(self._daemons)}>")
