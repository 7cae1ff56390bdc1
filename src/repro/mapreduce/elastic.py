"""Elastic cluster management over the MapReduce engine.

The paper (§II) extended Hadoop so virtual clusters can grow and shrink
*while jobs run*.  :class:`ElasticCluster` is that control plane: it
pairs a set of worker VMs with a :class:`JobTracker`, and its
:meth:`add_nodes` / :meth:`remove_nodes` operate mid-job — new trackers
start pulling tasks immediately, removed ones hand their work back.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..hypervisor.vm import VirtualMachine
from ..simkernel.core import Simulator
from .engine import JobTracker, TaskTracker


class ElasticCluster:
    """A resizable pool of MapReduce workers."""

    def __init__(self, sim: Simulator, jobtracker: JobTracker,
                 vms: Iterable[VirtualMachine] = ()):
        self.sim = sim
        self.jobtracker = jobtracker
        self.vms: List[VirtualMachine] = []
        for vm in vms:
            self.add_node(vm)

    def __len__(self) -> int:
        return len(self.vms)

    @property
    def total_slots(self) -> int:
        return self.jobtracker.total_slots

    def add_node(self, vm: VirtualMachine, slots: Optional[int] = None,
                 speed: float = 1.0) -> TaskTracker:
        """Attach a worker; effective immediately, even mid-job."""
        tracker = self.jobtracker.add_tracker(vm, slots=slots, speed=speed)
        self.vms.append(vm)
        return tracker

    def add_nodes(self, vms: Iterable[VirtualMachine]) -> List[TaskTracker]:
        return [self.add_node(vm) for vm in vms]

    def remove_node(self, vm: VirtualMachine, graceful: bool = True):
        """Detach a worker (its tasks are re-executed as needed).

        Returns the engine's drain event: wait on it before terminating
        the VM if the removal is graceful mid-job.
        """
        if vm not in self.vms:
            raise ValueError(f"{vm.name!r} is not a cluster node")
        drained = self.jobtracker.remove_tracker(vm, graceful=graceful)
        self.vms.remove(vm)
        return drained

    def remove_nodes(self, vms: Iterable[VirtualMachine],
                     graceful: bool = True) -> None:
        for vm in list(vms):
            self.remove_node(vm, graceful=graceful)

    def __repr__(self):
        return f"<ElasticCluster nodes={len(self.vms)} slots={self.total_slots}>"
