"""The contextualization broker (Nimbus "one-click virtual clusters").

After instances boot they hold identical images; contextualization is
what turns them into a *cluster*: each VM reports to a broker, receives
the cluster roster and its role (e.g. ``hadoop-master`` /
``hadoop-worker``), and runs its role scripts.  The paper relies on this
to deploy virtual clusters across clouds "without manual intervention".

Modeled costs: one small control exchange per VM with the broker's site
(real network flows, so cross-cloud contextualization pays WAN latency)
plus a per-role script time; the broker releases the cluster when *all*
members have checked in (barrier), matching Nimbus semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hypervisor.vm import VirtualMachine
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.process import Process

#: Bytes of the context exchange (template + roster + keys).
CONTEXT_MESSAGE_BYTES = 64 * 1024


@dataclass
class ContextualizationResult:
    """Timing of one cluster contextualization."""

    cluster_size: int
    started_at: float
    all_joined_at: float
    completed_at: float
    roles: Dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


class ContextBroker:
    """Coordinates cluster membership and role assignment."""

    def __init__(self, sim: Simulator, scheduler: FlowScheduler,
                 site: str, role_script_time: float = 2.0):
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        #: Site hosting the broker service.
        self.site = site
        #: Time each VM spends executing its role scripts.
        self.role_script_time = role_script_time

    def contextualize(self, vms: Sequence[VirtualMachine],
                      roles: Optional[Dict[str, str]] = None,
                      span=None) -> Process:
        """Contextualize ``vms`` into one cluster.

        ``roles`` maps VM name to role; unnamed VMs get ``"worker"``.
        ``span`` optionally parents the contextualization's trace span.
        Yield the process for a :class:`ContextualizationResult`.
        """
        if not vms:
            raise ValueError("cannot contextualize an empty cluster")
        roles = dict(roles or {})
        for vm in vms:
            roles.setdefault(vm.name, "worker")
        return self.sim.process(self._run(list(vms), roles, span),
                                name="contextualize")

    def _run(self, vms: List[VirtualMachine], roles: Dict[str, str],
             parent_span=None):
        started = self.sim.now
        tracer = tracer_of(self.sim)
        cspan = tracer.start("contextualize", parent=parent_span,
                             track="contextualize", vms=len(vms))
        # Each VM exchanges its context with the broker (both ways).
        joins = [
            self.sim.process(self._join(vm, cspan), name=f"ctx-{vm.name}")
            for vm in vms
        ]
        yield self.sim.all_of(joins)
        all_joined = self.sim.now
        cspan.event("barrier-passed")
        # Barrier passed: every VM runs its role scripts in parallel.
        rspan = tracer.start("role-scripts", parent=cspan)
        yield self.sim.timeout(self.role_script_time)
        rspan.end()
        cspan.end()
        return ContextualizationResult(
            cluster_size=len(vms),
            started_at=started,
            all_joined_at=all_joined,
            completed_at=self.sim.now,
            roles=roles,
        )

    def _join(self, vm: VirtualMachine, span=None):
        jspan = tracer_of(self.sim).start(f"ctx-join:{vm.name}",
                                          parent=span, vm=vm.name)
        # Report in, then receive roster + credentials.
        up = self.transport.control(
            vm.site, self.site, CONTEXT_MESSAGE_BYTES,
            tag="context", src_vm=vm.name, span=jspan,
        )
        yield up.done
        down = self.transport.control(
            self.site, vm.site, CONTEXT_MESSAGE_BYTES,
            tag="context", dst_vm=vm.name, span=jspan,
        )
        yield down.done
        jspan.end()
