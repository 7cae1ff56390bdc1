"""Process-per-layer reference for cluster provisioning.

Every control-plane lease once provisioned its cluster through four
nested processes: the job's runner waited on ``Federation._create``,
which waited on one ``Cloud._provision`` per cloud, each of which waited
on its own image-deploy process (and a copy-on-write deploy on a
chain-deploy process for its cache misses).  Elastic growth waited on a
``Federation._grow`` process the same way.  The classes below keep that
path.  A plane world whose scheduler, federation, clouds and
propagation strategies run them must end with the same event log, job
rows, billing segments and clock as the same world on the library; only
the kernel's sequence number may differ.  Switch a built, not yet
started plane to them with :func:`install`.
"""

from typing import Dict, List

from repro.cloud.propagation import CowPropagation, DeploymentStats
from repro.cloud.provider import Cloud, CloudError, InstanceSpec
from repro.controlplane.jobs import JobState
from repro.controlplane.scheduler import FairShareScheduler, _Run
from repro.controlplane.statemachine import transition
from repro.hypervisor.disk import CowDisk
from repro.hypervisor.memory import MemoryImage
from repro.hypervisor.vm import VirtualMachine
from repro.obs.trace import tracer_of
from repro.sky.federation import Federation, FederationError
from repro.sky.scheduler import Balanced, PlacementError
from repro.sky.virtual_cluster import VirtualCluster
from repro.simkernel.errors import Interrupt


class FixedAllocation:
    """Placement policy returning a split the scheduler already chose."""

    def __init__(self, allocation: Dict[str, int]):
        self.allocation = dict(allocation)

    def allocate(self, clouds, n, spec):
        return dict(self.allocation)


class LayeredCowPropagation(CowPropagation):
    """Copy-on-write deploys whose chain step runs in its own process."""

    def _deploy(self, image, hosts, span=None):
        started = self.sim.now
        misses = [h for h in hosts if not self.cache.has(h, image.name)]
        hits = len(hosts) - len(misses)
        moved = 0.0
        if misses:
            stats = yield self._chain.deploy(image, misses, span=span)
            moved = stats.bytes_moved
        ospan = tracer_of(self.sim).start(
            "overlay-setup", parent=span, hosts=len(hosts))
        yield self.sim.timeout(self.overlay_setup)
        ospan.end()
        return DeploymentStats(image.name, len(hosts), moved, started,
                               self.sim.now, self.name, cache_hits=hits)


class LayeredCloud(Cloud):
    """A cloud whose batches wait on a separate image-deploy process."""

    def _provision(self, image, count, spec, memory_factory, name_prefix):
        pages = spec.memory_pages or image.default_memory_pages
        hosts = self._pick_hosts(count, spec, pages)
        vms: List[VirtualMachine] = []
        prefix = name_prefix or f"{self.name}-{image.name}"
        try:
            for host in hosts:
                self._counter += 1
                vm_name = f"{prefix}-{self._counter}"
                memory = (memory_factory(vm_name) if memory_factory
                          else MemoryImage(pages))
                if memory.n_pages != pages:
                    raise CloudError(
                        f"memory_factory produced {memory.n_pages} pages, "
                        f"spec asks for {pages}"
                    )
                disk = CowDisk(f"{vm_name}-disk", image.disk)
                vm = VirtualMachine(self.sim, vm_name, memory, disk=disk,
                                    vcpus=spec.vcpus)
                host.place(vm)
                vm.address = self.address_pool.allocate(vm_name)
                vms.append(vm)
            distinct = list({h.name: h for h in hosts}.values())
            yield self.propagation.deploy(image, distinct)
            yield self.sim.timeout(self.boot_delay)
        except BaseException:
            for vm in vms:
                if vm.host is not None:
                    vm.host.evict(vm)
                self.address_pool.release(vm.address)
                vm.stop()
            raise
        for vm in vms:
            vm.boot()
            self.instances.append(vm)
            self.meter.start(vm.name, self.sim.now)
        return vms


class LayeredFederation(Federation):
    """A federation whose cluster creation and growth each run in a
    process of their own, started from the caller's step."""

    def create_virtual_cluster(self, image_name, n, policy=None,
                               spec=InstanceSpec(), memory_factory=None,
                               contextualize=True, name=None):
        if n <= 0:
            raise ValueError("cluster size must be positive")
        policy = policy or Balanced()
        allocation = policy.allocate(list(self.clouds.values()), n, spec)
        for cloud_name in allocation:
            if image_name not in self.cloud(cloud_name).repository:
                raise FederationError(
                    f"image {image_name!r} missing at {cloud_name!r}")
        return self.sim.process(
            self._layered_create(image_name, allocation, spec,
                                 memory_factory, contextualize, name),
            name="create-cluster")

    def _layered_create(self, image_name, allocation, spec, memory_factory,
                        contextualize, name):
        cluster_name = name or f"vc{next(Federation._cluster_ids)}"
        procs = [
            self.cloud(cloud_name).run_instances(
                image_name, count, spec=spec, memory_factory=memory_factory,
                name_prefix=f"{cluster_name}-{cloud_name}")
            for cloud_name, count in allocation.items()
        ]
        results = yield self.sim.all_of(procs)
        vms = []
        for proc in procs:
            vms.extend(results[proc])
        for vm in vms:
            self.overlay.register(vm)
        cluster = VirtualCluster(cluster_name, self, vms, image_name)
        if contextualize:
            broker = self.cloud(vms[0].site).context_broker
            yield broker.contextualize(vms, {cluster.master.name: "master"})
        self.clusters.append(cluster)
        return cluster

    def grow_cluster(self, cluster, count, cloud_name=None,
                     memory_factory=None):
        if count <= 0:
            raise ValueError("count must be positive")
        return self.sim.process(
            self._layered_grow(cluster, count, cloud_name, memory_factory),
            name=f"grow-{cluster.name}")

    def _layered_grow(self, cluster, count, cloud_name, memory_factory):
        if cloud_name is None:
            cloud_name = max(self.clouds.values(),
                             key=lambda c: c.capacity()).name
        cloud = self.cloud(cloud_name)
        vms = yield cloud.run_instances(
            cluster.image_name, count, memory_factory=memory_factory,
            name_prefix=f"{cluster.name}-{cloud_name}")
        for vm in vms:
            self.overlay.register(vm)
        yield cloud.context_broker.contextualize(vms)
        cluster.vms.extend(vms)
        return vms


class LayeredScheduler(FairShareScheduler):
    """The fair-share scheduler with a runner that waits on a
    cluster-creation process of its own."""

    def _run_job(self, job, allocation):
        cfg = self.config
        n = sum(allocation.values())
        tracer = tracer_of(self.sim)
        pspan = tracer.start("provision", parent=job.span, nodes=n)
        try:
            cluster = yield self.federation.create_virtual_cluster(
                self.image_name, n, policy=FixedAllocation(allocation),
                spec=cfg.spec, contextualize=False, name=job.name,
            )
        except (CloudError, PlacementError, FederationError):
            pspan.end(status="error")
            unreserved = job._reserved_work
            self._unreserve(job)
            self.queue.resubmit(job, cause="provision-failed",
                                unreserve=unreserved)
            return
        finally:
            for name, count in allocation.items():
                self._committed[name] -= count
            self._tenant_inflight[job.tenant] -= n
        pspan.end()

        lease = self.leases.grant(job.tenant, cluster, cfg.lease_term,
                                  job=job)
        job.attempts += 1
        transition(job, JobState.RUNNING, cause="provisioned",
                   lease=lease.id)
        job.span.event("lease-granted", lease=lease.id, nodes=n)
        if self.spot is not None:
            self.spot.back_lease(lease, job, allocation)
        if job.started_at is None:
            job.started_at = self.sim.now
            self.metrics.record("queue.wait", job.wait_time)
            self.metrics.histogram(
                "queue.wait",
                labels={"tenant": job.tenant}).observe(job.wait_time)

        rspan = tracer.start("run", parent=job.span, attempt=job.attempts)
        run = _Run(self, job, lease)
        try:
            yield from self._run_ticks(run)
        except Interrupt as intr:
            run.live = False
            rspan.end(status=str(intr.cause) if intr.cause else "interrupted")
            return
        rspan.end()

        job._runner = None
        job.finished_at = self.sim.now
        unreserved = job._reserved_work
        self._unreserve(job)
        transition(job, JobState.COMPLETED, cause="work-done",
                   unreserve=unreserved)
        self.queue.tenants[job.tenant].jobs_completed += 1
        self.jobs_completed += 1
        if lease.active:
            self.leases.release(lease)
        self.metrics.record("jobs.completed", self.jobs_completed)
        self.metrics.record("job.turnaround", job.turnaround)
        job.span.set(attempts=job.attempts,
                     turnaround=job.turnaround).end()
        job.done.succeed(job)


def install(plane) -> None:
    """Switch a built, not yet started ``plane`` and its federation to
    the process-per-layer provisioning path."""
    plane.scheduler.__class__ = LayeredScheduler
    federation = plane.scheduler.federation
    federation.__class__ = LayeredFederation
    for cloud in federation.clouds.values():
        cloud.__class__ = LayeredCloud
        if type(cloud.propagation) is CowPropagation:
            cloud.propagation.__class__ = LayeredCowPropagation
