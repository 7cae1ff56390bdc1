"""The sky-computing federation (paper §II).

A :class:`Federation` ties the whole substrate together: the clouds
(each exposing the same Nimbus-like interface), the ViNe overlay giving
their VMs all-to-all connectivity, the Shrinker migration machinery, and
the contextualization that turns freshly booted instances into a working
cluster.  Its :meth:`create_virtual_cluster` is the paper's workflow:
*"creation of large scale virtual clusters spanning multiple distributed
clouds ... deployed and configured without manual intervention"*.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from ..cloud.provider import Cloud, CloudError, InstanceSpec
from ..hypervisor.migration import LiveMigrator
from ..hypervisor.vm import VirtualMachine
from ..network.billing import BillingMeter
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..network.topology import Topology
from ..shrinker.codec import shrinker_codec_factory
from ..shrinker.coordinator import ClusterMigrationCoordinator
from ..shrinker.registry import RegistryDirectory
from ..simkernel.core import Simulator
from ..simkernel.errors import Interrupt
from ..simkernel.process import Process
from ..vine.overlay import ViNeOverlay
from ..vine.reconfig import MigrationReconfigurator
from .scheduler import Balanced, PlacementPolicy
from .virtual_cluster import VirtualCluster


class FederationError(Exception):
    """Federation-level failure."""


class Federation:
    """A set of clouds operated as one sky-computing platform."""

    _cluster_ids = itertools.count(1)

    def __init__(self, sim: Simulator, topology: Topology,
                 scheduler: FlowScheduler, clouds: Sequence[Cloud],
                 use_shrinker: bool = True,
                 billing: Optional[BillingMeter] = None):
        if not clouds:
            raise FederationError("a federation needs at least one cloud")
        self.sim = sim
        self.topology = topology
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        self.clouds: Dict[str, Cloud] = {c.name: c for c in clouds}
        if len(self.clouds) != len(clouds):
            raise FederationError("cloud names must be unique")
        #: Inter-site traffic accounting (defaults to the scheduler's).
        self.billing = billing if billing is not None else scheduler.billing
        # Federation membership implies mutual migration trust (the
        # paper's authentication mechanism, pre-established here).
        for a in self.clouds.values():
            for b in self.clouds.values():
                if a is not b:
                    a.trust(b.name)
        #: All-to-all connectivity across every member cloud.
        self.overlay = ViNeOverlay(sim, topology, list(self.clouds))
        self.reconfigurator = MigrationReconfigurator(sim, self.overlay)
        #: Shared per-destination-site dedup state.
        self.registries = RegistryDirectory()
        codec_factory = (shrinker_codec_factory(self.registries)
                         if use_shrinker else None)
        self.migrator = LiveMigrator(sim, scheduler, codec_factory)
        self.migration_coordinator = ClusterMigrationCoordinator(
            sim, self.migrator, reconfigurator=self.reconfigurator)
        self.clusters: List[VirtualCluster] = []

    # -- lookups ---------------------------------------------------------

    def cloud(self, name: str) -> Cloud:
        try:
            return self.clouds[name]
        except KeyError:
            raise FederationError(f"no cloud named {name!r}") from None

    def cloud_at(self, site: str) -> Cloud:
        """The member cloud occupying ``site``."""
        return self.cloud(site)  # cloud name == site name by construction

    def cloud_of(self, vm: VirtualMachine) -> Cloud:
        """The cloud currently hosting (and billing) ``vm``."""
        cloud = self._owner(vm)
        if cloud is None:
            raise FederationError(
                f"{vm.name!r} is not an instance of this federation")
        return cloud

    def _owner(self, vm: VirtualMachine) -> Optional[Cloud]:
        # Ownership is the billing record, not ``vm.site``: during a sky
        # migration the site moves at switch-over but billing moves only
        # once the overlay reconfiguration has completed.
        for cloud in self.clouds.values():
            if vm in cloud.instances:
                return cloud
        return None

    def total_capacity(self, spec: InstanceSpec = InstanceSpec()) -> int:
        return sum(c.capacity(spec) for c in self.clouds.values())

    def replicate_image(self, image_name: str, src_cloud: str,
                        dst_cloud: str) -> Process:
        """Copy an image between member clouds' repositories.

        The paper's workflow needs "the same customized execution
        environment ... everywhere"; this is the WAN propagation that
        puts it there.  The transfer is content-addressed against the
        destination's Shrinker registry, so blocks the destination
        already stores (a previous image version, migrated VMs) never
        cross the WAN.  Yields the registered
        :class:`~repro.cloud.images.VMImage`; a no-op if the image is
        already present.
        """
        src = self.cloud(src_cloud)
        dst = self.cloud(dst_cloud)
        image = src.repository.get(image_name)
        return self.sim.process(
            self._replicate(image, src, dst),
            name=f"replicate-{image_name}",
        )

    def _replicate(self, image, src, dst):
        from ..shrinker.codec import ShrinkerCodec

        if image.name in dst.repository:
            return dst.repository.get(image.name)
        # Content the destination already stores (its other images,
        # migrated VMs) never crosses the WAN.
        self.index_destination_content(dst.name)
        registry = self.registries.for_site(dst.name)
        codec = ShrinkerCodec(registry, image.disk.block_size)
        enc = codec.encode(image.disk.blocks())
        flow = self.transport.propagation(
            src.name, dst.name, enc.wire_bytes,
            tag="image-replication", image=image.name,
        )
        yield flow.done
        replica = type(image)(
            image.name, image.disk.clone(f"{image.name}@{dst.name}"),
            os_pool=image.os_pool,
            default_memory_pages=image.default_memory_pages,
        )
        dst.repository.register(replica)
        return replica

    def index_destination_content(self, site: str) -> None:
        """Seed ``site``'s Shrinker registry with the image content its
        cloud already stores — migrations then dedup disk data against
        the destination's local repository (idempotent)."""
        registry = self.registries.for_site(site)
        cloud = self.clouds.get(site)
        if cloud is None:
            return
        for name in cloud.repository.names():
            registry.prepopulate_from_disk(cloud.repository.get(name).disk)

    # -- cluster lifecycle --------------------------------------------------
    #
    # Provisioning keeps a process only where it is concurrent: one
    # ``Cloud._provision`` batch per cloud.  Every entry point draws the
    # cluster name and starts its batches in its caller's own step, so
    # same-instant host placements keep one order whoever asks; the join
    # and the assembly run as a generator (:meth:`assemble`) inside the
    # caller's process, or inside the thin process the public methods
    # return.

    def create_virtual_cluster(self, image_name: str, n: int,
                               policy: Optional[PlacementPolicy] = None,
                               spec: InstanceSpec = InstanceSpec(),
                               memory_factory=None,
                               contextualize: bool = True,
                               name: Optional[str] = None) -> Process:
        """Provision an ``n``-node virtual cluster across the federation.

        Yields a :class:`VirtualCluster` whose members are booted,
        joined to the ViNe overlay and (optionally) contextualized.
        Every member cloud must hold ``image_name`` in its repository —
        the "same customized execution environment everywhere".  A
        failure (a refused or failed batch) fails the returned process
        and leaves nothing behind: see :meth:`assemble`.
        """
        if n <= 0:
            raise ValueError("cluster size must be positive")
        policy = policy or Balanced()
        allocation = policy.allocate(list(self.clouds.values()), n, spec)
        name = name or f"vc{next(Federation._cluster_ids)}"
        try:
            batches = self.launch(image_name, allocation, name, spec,
                                  memory_factory)
        except CloudError as error:
            return self.sim.process(_fail(error), name="create-cluster")
        return self.sim.process(
            self.assemble(name, image_name, batches, contextualize),
            name="create-cluster",
        )

    def launch(self, image_name: str, allocation: Dict[str, int],
               name: str, spec: InstanceSpec = InstanceSpec(),
               memory_factory=None) -> List[Process]:
        """Start cluster ``name``'s provisioning batches now, one per
        cloud of ``allocation`` (cloud name -> node count), in
        allocation order; returns the batch processes for
        :meth:`assemble`.  Raises :class:`FederationError` before any
        batch starts if a cloud lacks the image; a cloud refusing its
        batch (:class:`~repro.cloud.provider.QuotaExceeded`) rolls back
        the batches already started and re-raises."""
        for cloud_name in allocation:
            if image_name not in self.cloud(cloud_name).repository:
                raise FederationError(
                    f"image {image_name!r} missing at {cloud_name!r}"
                )
        batches: List[Process] = []
        try:
            for cloud_name, count in allocation.items():
                batches.append(self.cloud(cloud_name).run_instances(
                    image_name, count, spec=spec,
                    memory_factory=memory_factory,
                    name_prefix=f"{name}-{cloud_name}",
                ))
        except BaseException:
            self._roll_back(batches)
            raise
        return batches

    def assemble(self, name: str, image_name: str,
                 batches: List[Process], contextualize: bool = True):
        """Join ``batches`` (from :meth:`launch`) and assemble their VMs
        into cluster ``name``: a generator, for ``yield from`` inside
        the process that launched them.

        The join is an ``all_of`` over the batches.  If it fails, every
        batch is rolled back (see :meth:`_roll_back`) and the error
        re-raised.  If the waiting process is interrupted (a control
        plane crashing mid-provision), the join and the assembly carry
        on in a process of their own, as a cluster-creation process
        would have, and the interrupt is re-raised.
        """
        return (yield from self._assemble(self.sim.all_of(batches), name,
                                          image_name, batches,
                                          contextualize))

    def _assemble(self, join, name, image_name, batches, contextualize):
        try:
            yield join
        except Exception as error:
            # Not GeneratorExit: a runner closed with its dead
            # simulation must not schedule a roll-back into it, which
            # would keep that simulation alive past the collection.
            if isinstance(error, Interrupt) and join.ok is not False:
                # The waiting process was interrupted; no batch failed.
                self.sim.process(
                    self._assemble(join, name, image_name, batches,
                                   contextualize),
                    name="create-cluster",
                )
            else:
                self._roll_back(batches)
            raise
        vms = [vm for batch in batches for vm in batch.value]
        for vm in vms:
            self.overlay.register(vm)
        cluster = VirtualCluster(name, self, vms, image_name)
        if contextualize:
            broker = self.cloud(vms[0].site).context_broker
            roles = {cluster.master.name: "master"}
            yield broker.contextualize(vms, roles)
        self.clusters.append(cluster)
        return cluster

    def _roll_back(self, batches: List[Process]) -> None:
        """Undo the batches of a failed cluster: interrupt the ones
        still running (each returns its own reservation) and terminate
        the VMs of the ones that booted.  Their failures are the
        caller's to report, so none reaches the kernel undefused."""
        for batch in batches:
            batch.defused = True
            if batch.is_alive:
                batch.interrupt("rolled back")
            elif batch.ok:
                for vm in batch.value:
                    self.terminate(vm)

    def grow_cluster(self, cluster: VirtualCluster, count: int,
                     cloud_name: Optional[str] = None,
                     memory_factory=None) -> Process:
        """Add nodes at runtime (yields the new VMs, already overlaid
        and contextualized)."""
        if count <= 0:
            raise ValueError("count must be positive")
        if cloud_name is None:
            # Prefer the cloud with the most headroom.
            cloud_name = max(self.clouds.values(),
                             key=lambda c: c.capacity()).name
        proc_name = f"grow-{cluster.name}"
        cloud = self.cloud(cloud_name)
        try:
            batch = cloud.run_instances(
                cluster.image_name, count, memory_factory=memory_factory,
                name_prefix=f"{cluster.name}-{cloud_name}",
            )
        except CloudError as error:
            return self.sim.process(_fail(error), name=proc_name)
        return self.sim.process(self._grow(cluster, cloud, batch),
                                name=proc_name)

    def _grow(self, cluster, cloud, batch):
        vms = yield batch
        for vm in vms:
            self.overlay.register(vm)
        yield cloud.context_broker.contextualize(vms)
        cluster.vms.extend(vms)
        return vms

    def shrink_cluster(self, cluster: VirtualCluster,
                       vms: List[VirtualMachine]) -> float:
        """Remove and terminate members; returns the billed cost."""
        cost = 0.0
        for vm in vms:
            if vm not in cluster.vms:
                raise FederationError(
                    f"{vm.name!r} is not in cluster {cluster.name!r}"
                )
            if vm is cluster.master:
                raise FederationError("refusing to remove the master node")
            cost += self.terminate(vm, cluster)
        return cost

    def terminate(self, vm: VirtualMachine,
                  cluster: Optional[VirtualCluster] = None) -> float:
        """End ``vm``'s life: drop it from ``cluster``, then from the
        overlay, then terminate and unbill it at the cloud that tracks
        it.  Returns that cloud's billed cost, or 0.0 when no cloud
        tracks the VM any more (e.g. the spot market already killed
        it).  The one retirement path for every control-plane, sky and
        EMR teardown."""
        if cluster is not None and vm in cluster.vms:
            cluster.vms.remove(vm)
        if (vm.has_address
                and self.overlay.members.get(vm.address.host) is vm):
            # Membership is the member itself: a NAT address can share
            # its host id with another VM's overlay address.
            self.overlay.unregister(vm)
        cloud = self._owner(vm)
        return 0.0 if cloud is None else cloud.terminate(vm)


def _fail(error: BaseException):
    """Process body failing at once with ``error``: a provisioning call
    refused in the caller's step still reports through its process."""
    raise error
    yield  # pragma: no cover - makes this a generator
