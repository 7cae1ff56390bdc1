"""Physical hosts: capacity-checked VM placement within a site."""

from __future__ import annotations

from typing import List

from .vm import VirtualMachine


class CapacityError(Exception):
    """Placement would exceed the host's cores or RAM."""


class PhysicalHost:
    """One hypervisor node at a site.

    Tracks core and RAM headroom and the set of resident VMs; the
    migration engine moves VMs between hosts with :meth:`evict` /
    :meth:`place`.  ``used_cores`` / ``used_ram`` are running totals
    kept by those two methods (the only writers of ``vms``; a VM's
    ``vcpus`` and memory size are fixed at construction), so headroom
    queries cost O(1) however many VMs are resident.
    """

    def __init__(self, name: str, site: str, cores: int = 8,
                 ram_bytes: int = 32 * 2**30):
        if cores <= 0 or ram_bytes <= 0:
            raise ValueError("cores and ram_bytes must be positive")
        self.name = name
        self.site = site
        self.cores = cores
        self.ram_bytes = ram_bytes
        self.vms: List[VirtualMachine] = []
        self.used_cores = 0
        self.used_ram = 0

    @property
    def free_cores(self) -> int:
        return self.cores - self.used_cores

    @property
    def free_ram(self) -> int:
        return self.ram_bytes - self.used_ram

    def fits(self, vm: VirtualMachine) -> bool:
        """Would ``vm`` fit right now?"""
        return (vm.vcpus <= self.free_cores
                and vm.memory.size_bytes <= self.free_ram)

    def place(self, vm: VirtualMachine) -> None:
        """Bind ``vm`` to this host (does not boot it)."""
        if vm.host is not None:
            raise ValueError(f"{vm.name!r} is already placed on {vm.host.name!r}")
        if not self.fits(vm):
            raise CapacityError(
                f"{vm.name!r} does not fit on {self.name!r} "
                f"(free: {self.free_cores} cores / {self.free_ram} B)"
            )
        self.vms.append(vm)
        self.used_cores += vm.vcpus
        self.used_ram += vm.memory.size_bytes
        vm.host = self

    def evict(self, vm: VirtualMachine) -> None:
        """Unbind ``vm`` from this host."""
        try:
            self.vms.remove(vm)
        except ValueError:
            raise ValueError(f"{vm.name!r} is not on host {self.name!r}") from None
        self.used_cores -= vm.vcpus
        self.used_ram -= vm.memory.size_bytes
        vm.host = None

    def __repr__(self):
        return (f"<Host {self.name!r}@{self.site} "
                f"{self.used_cores}/{self.cores} cores "
                f"{len(self.vms)} VMs>")
