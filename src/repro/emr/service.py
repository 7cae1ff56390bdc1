"""The Elastic MapReduce service over distributed clouds (paper §IV).

    "...we are working on implementing an Elastic MapReduce service
    harnessing resources from distributed clouds.  This service will
    support dynamic addition and removal of virtual nodes as well as
    policies for resource selection."

:class:`ElasticMapReduceService` provisions managed MapReduce clusters
through the federation (so they may span clouds), runs jobs on them, and
— under a :class:`~repro.emr.policies.DeadlineScalePolicy` — grows the
cluster mid-job from whichever cloud the resource-selection policy
picks, then releases the extra nodes when the job finishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..mapreduce.elastic import ElasticCluster
from ..mapreduce.engine import JobTracker
from ..mapreduce.job import JobResult, MapReduceJob
from ..simkernel.process import Process
from ..sky.federation import Federation
from ..sky.scheduler import PlacementPolicy
from ..sky.virtual_cluster import VirtualCluster
from .policies import StaticPolicy


@dataclass
class EMRJobReport:
    """Everything one managed job run reports."""

    result: JobResult
    deadline: Optional[float]
    deadline_met: Optional[bool]
    nodes_added: int
    nodes_released: int
    compute_cost: float
    scale_events: List[float] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.result.makespan


class EMRCluster:
    """A managed MapReduce cluster: VMs + engine + elasticity."""

    _ids = itertools.count(1)

    def __init__(self, service: "ElasticMapReduceService",
                 cluster: VirtualCluster, jobtracker: JobTracker):
        self.id = next(EMRCluster._ids)
        self.service = service
        self.cluster = cluster
        self.jobtracker = jobtracker
        self.elastic = ElasticCluster(service.federation.sim, jobtracker)
        for vm in cluster.vms:
            self.elastic.add_node(vm)
        #: Nodes the scaler added (released after their job).
        self.scaled_nodes: List = []

    @property
    def size(self) -> int:
        return len(self.elastic)

    def __repr__(self):
        return f"<EMRCluster #{self.id} nodes={self.size}>"


class ElasticMapReduceService:
    """Managed MapReduce over the federation."""

    def __init__(self, federation: Federation, image_name: str,
                 rng: Optional[np.random.Generator] = None,
                 traffic_recorder=None, speculative: bool = False):
        self.federation = federation
        self.image_name = image_name
        self.rng = rng or np.random.default_rng(0)
        self.traffic_recorder = traffic_recorder
        #: Enable Hadoop-style speculative execution on managed clusters.
        self.speculative = speculative

    # -- cluster management --------------------------------------------------

    def create_cluster(self, n_nodes: int,
                       policy: Optional[PlacementPolicy] = None,
                       name: Optional[str] = None) -> Process:
        """Provision a managed cluster (yields an :class:`EMRCluster`)."""
        return self.federation.sim.process(
            self._create(n_nodes, policy, name), name="emr-create",
        )

    def _create(self, n_nodes, policy, name):
        cluster = yield self.federation.create_virtual_cluster(
            self.image_name, n_nodes, policy=policy, name=name,
        )
        jt = JobTracker(
            self.federation.sim, self.federation.scheduler,
            rng=self.rng, traffic_recorder=self.traffic_recorder,
            speculative=self.speculative,
        )
        return EMRCluster(self, cluster, jt)

    def release_cluster(self, emr: EMRCluster) -> float:
        """Terminate every node; returns the compute cost billed."""
        cost = 0.0
        for vm in list(emr.elastic.vms):
            emr.elastic.remove_node(vm, graceful=True)
        workers = [vm for vm in emr.cluster.vms
                   if vm is not emr.cluster.master]
        cost += self.federation.shrink_cluster(emr.cluster, workers)
        master = emr.cluster.master
        if master is not None:
            cost += self.federation.terminate(master, emr.cluster)
        return cost

    # -- job execution ---------------------------------------------------

    def run_job(self, emr: EMRCluster, job: MapReduceJob,
                deadline: Optional[float] = None,
                scale_policy=None,
                selection_policy: Optional[PlacementPolicy] = None
                ) -> Process:
        """Run ``job`` with optional deadline-driven scaling.

        ``deadline`` is absolute simulation time.  Yields an
        :class:`EMRJobReport`.
        """
        scale_policy = scale_policy or StaticPolicy()
        return self.federation.sim.process(
            self._run_job(emr, job, deadline, scale_policy,
                          selection_policy),
            name=f"emr-job-{job.name}",
        )

    def _run_job(self, emr, job, deadline, scale_policy, selection_policy):
        sim = self.federation.sim
        cost_before = sum(
            c.compute_cost() for c in self.federation.clouds.values()
        )
        job_proc = emr.jobtracker.submit(job)
        scale_events: List[float] = []
        counters = {"added": 0, "removed": 0}

        interval = getattr(scale_policy, "check_interval", None)
        if interval:
            sim.process(
                self._scale_controller(emr, job, deadline, scale_policy,
                                       selection_policy, job_proc,
                                       scale_events, counters),
                name="emr-scaler",
            )
        result = yield job_proc

        # Release scale-out nodes: the job is done, stop paying for them.
        released = counters["removed"]
        for vm in list(emr.scaled_nodes):
            if vm in emr.elastic.vms:
                emr.elastic.remove_node(vm, graceful=True)
            self.federation.shrink_cluster(emr.cluster, [vm])
            emr.scaled_nodes.remove(vm)
            released += 1

        cost_after = sum(
            c.compute_cost() for c in self.federation.clouds.values()
        )
        return EMRJobReport(
            result=result,
            deadline=deadline,
            deadline_met=(bool(result.finished_at <= deadline)
                          if deadline is not None else None),
            nodes_added=counters["added"],
            nodes_released=released,
            compute_cost=cost_after - cost_before,
            scale_events=scale_events,
        )

    def _scale_in_victims(self, emr, want: int):
        """Scale-out nodes safe to remove right now."""
        run = emr.jobtracker.current
        holders = set()
        if run is not None and not run.finished:
            if run.reduces_done < run.job.n_reduces:
                holders = {name for name, _site in run.map_outputs.values()}
        victims = [vm for vm in emr.scaled_nodes
                   if vm.name not in holders]
        return victims[:want]

    def _scale_controller(self, emr, job, deadline, policy,
                          selection_policy, job_proc, scale_events,
                          counters):
        sim = self.federation.sim
        while not job_proc.triggered:
            yield sim.timeout(policy.check_interval)
            if job_proc.triggered:
                return
            n = policy.decide(emr.jobtracker, job, deadline, sim.now)
            if n < 0 and emr.scaled_nodes:
                # Scale-in: hand back scale-out nodes we no longer need.
                # Removing a node whose map outputs reducers still need
                # would force re-execution (Hadoop semantics), so only
                # nodes holding no needed outputs are eligible.
                victims = self._scale_in_victims(emr, -n)
                if not victims:
                    continue
                drains = []
                for vm in victims:
                    if vm in emr.elastic.vms:
                        drains.append(
                            emr.elastic.remove_node(vm, graceful=True))
                if drains:
                    yield sim.all_of(drains)
                for vm in victims:
                    self.federation.shrink_cluster(emr.cluster, [vm])
                    emr.scaled_nodes.remove(vm)
                    counters["removed"] += 1
                scale_events.append(sim.now)
                continue
            if n <= 0:
                continue
            n = min(n, self.federation.total_capacity())
            if n <= 0:
                continue
            # Resource selection for the new nodes (paper: deadline-aware
            # *and* cost-aware selection).
            cloud_name = None
            if selection_policy is not None:
                from ..cloud.provider import InstanceSpec
                alloc = selection_policy.allocate(
                    list(self.federation.clouds.values()), n, InstanceSpec())
                cloud_name = max(alloc, key=alloc.get)
            try:
                new_vms = yield emr.cluster.grow(n, cloud_name=cloud_name)
            except Exception:
                continue  # provisioning race; retry next tick
            for vm in new_vms:
                emr.elastic.add_node(vm)
                emr.scaled_nodes.append(vm)
                counters["added"] += 1
            scale_events.append(sim.now)
