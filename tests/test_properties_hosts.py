"""Property-based tests for host accounting: a host's running core and
RAM totals equal the sums over its resident VMs after any mix of direct
placement, eviction, live migration (including a switch-over that loses
its race), cloud provisioning (including rolled-back batches) and
termination."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cloud import Cloud, CloudError, InstanceSpec, make_image
from repro.hypervisor import (
    CapacityError,
    LiveMigrator,
    MemoryImage,
    MigrationError,
    PhysicalHost,
    VirtualMachine,
)
from repro.network import FlowScheduler, Site, Topology, gbit_per_s
from repro.simkernel import Simulator

PAGE = 4096
HOST_PAGES = 512


class HostAccounting(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        topo = Topology()
        site = topo.add_site(Site("s", lan_bandwidth=gbit_per_s(10)))
        sched = FlowScheduler(self.sim, topo)
        self.hosts = [PhysicalHost(f"h{i}", "s", cores=4,
                                   ram_bytes=HOST_PAGES * PAGE)
                      for i in range(3)]
        self.cloud = Cloud(self.sim, sched, site, self.hosts,
                           boot_delay=1.0)
        self.cloud.repository.register(make_image(
            "img", np.random.default_rng(0), n_blocks=64,
            default_memory_pages=64))
        self.migrator = LiveMigrator(self.sim, sched)
        #: VMs placed directly on a host (outside the cloud's books).
        self.loose = []
        self._n = 0

    def _vm(self, vcpus, pages):
        self._n += 1
        return VirtualMachine(self.sim, f"v{self._n}", MemoryImage(pages),
                              vcpus=vcpus)

    def _placed(self):
        return [vm for vm in self.loose + self.cloud.instances
                if vm.host is not None]

    @rule(host=st.integers(0, 2), vcpus=st.integers(1, 3),
          pages=st.sampled_from([32, 128, 256]))
    def place(self, host, vcpus, pages):
        vm = self._vm(vcpus, pages)
        try:
            self.hosts[host].place(vm)
        except CapacityError:
            assert vm.host is None
            return
        vm.boot()
        self.loose.append(vm)

    @rule(pick=st.integers(0, 1000))
    def evict(self, pick):
        placed = [vm for vm in self.loose if vm.host is not None]
        if not placed:
            return
        vm = placed[pick % len(placed)]
        vm.host.evict(vm)
        with pytest.raises(ValueError):
            self.hosts[0].evict(vm)  # no longer resident anywhere
        self.loose.remove(vm)

    @rule(pick=st.integers(0, 1000), dst=st.integers(0, 2),
          race=st.booleans())
    def migrate(self, pick, dst, race):
        placed = self._placed()
        if not placed:
            return
        vm = placed[pick % len(placed)]
        dst_host = self.hosts[dst]
        if dst_host is vm.host or not dst_host.fits(vm):
            return
        proc = self.migrator.migrate(vm, dst_host)
        if race:
            # A concurrent placement takes every free core of the
            # destination while the pre-copy runs: switch-over must fail
            # and roll the VM back onto its source.
            filler = self._vm(dst_host.free_cores, 32)
            dst_host.place(filler)
            filler.boot()
            self.loose.append(filler)
            with pytest.raises(MigrationError):
                self.sim.run(until=proc)
            assert vm.host is not dst_host
        else:
            self.sim.run(until=proc)
            assert vm.host is dst_host

    @rule(count=st.integers(1, 4), vcpus=st.integers(1, 2),
          pages=st.sampled_from([64, 128]),
          bad_at=st.one_of(st.none(), st.integers(1, 4)))
    def provision(self, count, vcpus, pages, bad_at):
        """Provision a batch; ``bad_at`` makes the memory factory return
        a wrong-size image for that instance, failing the batch after
        earlier instances were already placed."""
        made = []

        def factory(name):
            made.append(name)
            n = pages + 1 if len(made) == bad_at else pages
            return MemoryImage(n)

        before = {h.name: (h.used_cores, h.used_ram) for h in self.hosts}
        proc = self.cloud.run_instances(
            "img", count, InstanceSpec(vcpus=vcpus, memory_pages=pages),
            memory_factory=factory)
        try:
            self.sim.run(until=proc)
        except CloudError:
            # Capacity or a bad instance: the batch returns everything.
            assert {h.name: (h.used_cores, h.used_ram)
                    for h in self.hosts} == before

    @rule(pick=st.integers(0, 1000))
    def terminate(self, pick):
        if not self.cloud.instances:
            return
        vm = self.cloud.instances[pick % len(self.cloud.instances)]
        self.cloud.terminate(vm)
        assert vm.host is None

    @invariant()
    def totals_match_residents(self):
        for h in self.hosts:
            assert h.used_cores == sum(vm.vcpus for vm in h.vms)
            assert h.used_ram == sum(vm.memory.size_bytes for vm in h.vms)
            assert 0 <= h.used_cores <= h.cores
            assert 0 <= h.used_ram <= h.ram_bytes
            assert all(vm.host is h for vm in h.vms)


HostAccounting.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
test_host_accounting = HostAccounting.TestCase
