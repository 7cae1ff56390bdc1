"""The IaaS cloud provider (the Nimbus toolkit stand-in).

One :class:`Cloud` manages one site: a pool of physical hosts, an image
repository, an image-propagation strategy, plain-IP addressing, quotas
and billing.  Its API mirrors what the paper uses Nimbus for: *"a common
interface across all distributed clouds, allowing the same customized
execution environment to be run everywhere"* — every cloud exposes the
same :meth:`run_instances` / :meth:`terminate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..hypervisor.disk import CowDisk
from ..hypervisor.host import PhysicalHost
from ..hypervisor.memory import MemoryImage
from ..hypervisor.vm import VirtualMachine
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..network.nat import AddressPool
from ..network.topology import Site
from ..simkernel.core import Simulator
from ..simkernel.process import Process
from .contextualization import ContextBroker
from .images import ImageRepository, VMImage
from .pricing import InstancePricing, UsageMeter
from .propagation import (
    CowPropagation,
    HostImageCache,
    _PropagationBase,
)


class CloudError(Exception):
    """Provisioning failure (quota, capacity, unknown image...)."""


class QuotaExceeded(CloudError):
    """The request would exceed the per-customer instance quota."""


@dataclass
class InstanceSpec:
    """Shape of a requested instance."""

    vcpus: int = 1
    memory_pages: Optional[int] = None  # default: image's default


class Cloud:
    """One IaaS cloud over one site.

    Parameters
    ----------
    sim, scheduler:
        Kernel and the shared flow network.
    site:
        The :class:`~repro.network.topology.Site` this cloud occupies.
    hosts:
        Its physical machines.
    propagation:
        Image-propagation strategy; defaults to chain+CoW (the paper's
        fast path).
    quota:
        Maximum concurrently running instances (None = unlimited).
    boot_delay:
        Guest boot time once its disk is available.
    """

    def __init__(self, sim: Simulator, scheduler: FlowScheduler, site: Site,
                 hosts: Sequence[PhysicalHost],
                 propagation: Optional[_PropagationBase] = None,
                 pricing: Optional[InstancePricing] = None,
                 quota: Optional[int] = None,
                 boot_delay: float = 10.0):
        if not hosts:
            raise ValueError("a cloud needs at least one host")
        for h in hosts:
            if h.site != site.name:
                raise ValueError(
                    f"host {h.name!r} is at {h.site!r}, not {site.name!r}"
                )
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        self.site = site
        self.hosts = list(hosts)
        #: Host names excluded from new placements (draining/cordoned).
        self.unschedulable: set = set()
        self.cache = HostImageCache()
        self.repository = ImageRepository(site.name)
        self.propagation = propagation or CowPropagation(
            sim, self.transport, self.cache
        )
        self.pricing = pricing or InstancePricing()
        self.meter = UsageMeter(self.pricing)
        self.quota = quota
        self.boot_delay = boot_delay
        self.address_pool = AddressPool(site.name)
        self.context_broker = ContextBroker(sim, self.transport, site.name)
        self.instances: List[VirtualMachine] = []
        #: Clouds whose hypervisors may open migration channels here
        #: (credential exchange established out of band; the federation
        #: sets mutual trust among its members).
        self.trusted_peers: set = set()
        self._counter = 0

    def trust(self, peer_name: str) -> None:
        """Accept inbound migrations from ``peer_name``."""
        self.trusted_peers.add(peer_name)

    def revoke_trust(self, peer_name: str) -> None:
        """Stop accepting inbound migrations from ``peer_name``."""
        self.trusted_peers.discard(peer_name)

    def cordon(self, host_name: str) -> None:
        """Exclude a host from new placements (it keeps running what it
        already hosts); used while the health monitor drains it."""
        if host_name not in {h.name for h in self.hosts}:
            raise CloudError(f"{self.name!r} has no host {host_name!r}")
        self.unschedulable.add(host_name)

    def uncordon(self, host_name: str) -> None:
        """Make a host eligible for new placements again."""
        self.unschedulable.discard(host_name)

    def _schedulable_hosts(self) -> List[PhysicalHost]:
        if not self.unschedulable:
            return self.hosts
        return [h for h in self.hosts if h.name not in self.unschedulable]

    # -- queries ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.site.name

    def capacity(self, spec: InstanceSpec = InstanceSpec()) -> int:
        """How many instances of ``spec`` fit right now."""
        pages = spec.memory_pages or 65536
        ram = pages * 4096
        total = 0
        for h in self._schedulable_hosts():
            total += min(h.free_cores // spec.vcpus,
                         int(h.free_ram // ram)) if spec.vcpus else 0
        if self.quota is not None:
            total = min(total, self.quota - len(self.instances))
        return max(0, total)

    # -- provisioning ------------------------------------------------------

    def run_instances(self, image_name: str, count: int,
                      spec: InstanceSpec = InstanceSpec(),
                      memory_factory: Optional[Callable[[str], MemoryImage]]
                      = None,
                      name_prefix: Optional[str] = None) -> Process:
        """Launch ``count`` instances of ``image_name``.

        Yield the returned process for the list of booted
        :class:`VirtualMachine` objects.  ``memory_factory(vm_name)``
        lets callers install workload-specific memory contents.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        image = self.repository.get(image_name)
        if self.quota is not None and len(self.instances) + count > self.quota:
            raise QuotaExceeded(
                f"quota {self.quota} would be exceeded by +{count}"
            )
        return self.sim.process(
            self._provision(image, count, spec, memory_factory, name_prefix),
            name=f"provision-{self.name}",
        )

    def _pick_hosts(self, count: int, spec: InstanceSpec,
                    pages: int) -> List[PhysicalHost]:
        """First-fit-decreasing placement over current headroom."""
        ram = pages * 4096
        candidates = self._schedulable_hosts()
        chosen: List[PhysicalHost] = []
        headroom = {
            h.name: [h.free_cores, h.free_ram] for h in candidates
        }
        for _ in range(count):
            placed = False
            for h in sorted(candidates,
                            key=lambda h: headroom[h.name][0], reverse=True):
                cores, free_ram = headroom[h.name]
                if cores >= spec.vcpus and free_ram >= ram:
                    chosen.append(h)
                    headroom[h.name][0] -= spec.vcpus
                    headroom[h.name][1] -= ram
                    placed = True
                    break
            if not placed:
                raise CloudError(
                    f"{self.name!r}: insufficient capacity for {count} "
                    f"x {spec.vcpus} vCPU instances"
                )
        return chosen

    def _provision(self, image: VMImage, count: int, spec: InstanceSpec,
                   memory_factory, name_prefix):
        pages = spec.memory_pages or image.default_memory_pages
        hosts = self._pick_hosts(count, spec, pages)

        # Reserve the capacity *before* the propagation wait: hosts are
        # claimed synchronously so concurrent provisioning batches never
        # double-book a host they both saw as free.
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

            # Propagate the image to the distinct hosts involved, then
            # boot the guests in parallel.  The batch is the one process
            # of a provisioning: the deploy runs inside it.
            distinct = list({h.name: h for h in hosts}.values())
            yield from self.propagation.propagate(image, distinct)
            yield self.sim.timeout(self.boot_delay)
        except Exception:
            # Return every reservation of the failed batch (atomicity:
            # a partial batch never holds capacity or addresses).
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

    def terminate(self, vm: VirtualMachine) -> float:
        """Stop and release an instance; returns its billed cost."""
        if vm not in self.instances:
            raise CloudError(f"{vm.name!r} is not an instance of {self.name!r}")
        self.instances.remove(vm)
        cost = self.meter.stop(vm.name, self.sim.now)
        if vm.host is not None:
            vm.host.evict(vm)
        vm.stop()
        return cost

    def adopt(self, vm: VirtualMachine, hourly_rate: Optional[float] = None
              ) -> None:
        """Take over billing/tracking of a VM that migrated *into* this
        cloud (cloud-API-level migration, paper §IV)."""
        if vm in self.instances:
            raise CloudError(f"{vm.name!r} is already tracked here")
        self.instances.append(vm)
        self.meter.start(vm.name, self.sim.now, hourly_rate)

    def release(self, vm: VirtualMachine) -> float:
        """Stop tracking a VM that migrated *out* (it keeps running)."""
        if vm not in self.instances:
            raise CloudError(f"{vm.name!r} is not an instance of {self.name!r}")
        self.instances.remove(vm)
        return self.meter.stop(vm.name, self.sim.now)

    def compute_cost(self) -> float:
        """Total compute bill up to now."""
        return self.meter.cost(self.sim.now)

    def __repr__(self):
        return (f"<Cloud {self.name!r} hosts={len(self.hosts)} "
                f"instances={len(self.instances)}>")
