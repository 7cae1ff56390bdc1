"""Tests for VM lifecycle, hosts, placement and the dirtier."""

import gc
import weakref

import numpy as np
import pytest

from repro.hypervisor import (
    CapacityError,
    Dirtier,
    MemoryImage,
    PhysicalHost,
    VirtualMachine,
    VMState,
)
from repro.network import Address
from repro.simkernel import Simulator
from repro.workloads import web_server

from tests.dirtier_oracle import queued_owners


def make_vm(sim, name="vm1", pages=256, vcpus=1):
    return VirtualMachine(sim, name, MemoryImage(pages), vcpus=vcpus)


def test_vm_initial_state():
    sim = Simulator()
    vm = make_vm(sim)
    assert vm.state is VMState.PENDING
    assert not vm.is_running
    assert not vm.has_address


def test_vm_requires_placement_to_boot():
    sim = Simulator()
    vm = make_vm(sim)
    with pytest.raises(RuntimeError):
        vm.boot()
    with pytest.raises(RuntimeError):
        _ = vm.site


def test_vm_lifecycle_transitions():
    sim = Simulator()
    vm = make_vm(sim)
    host = PhysicalHost("h1", "site-a")
    host.place(vm)
    vm.boot()
    assert vm.is_running
    vm.pause()
    assert vm.state is VMState.PAUSED
    vm.resume()
    assert vm.state is VMState.RUNNING
    vm.stop()
    assert vm.state is VMState.STOPPED
    vm.resume()  # no-op from STOPPED
    assert vm.state is VMState.STOPPED


def test_vm_address_assignment():
    sim = Simulator()
    vm = make_vm(sim)
    with pytest.raises(RuntimeError):
        _ = vm.address
    vm.address = Address("site-a", 5)
    assert vm.address == Address("site-a", 5)


def test_vm_vcpus_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        VirtualMachine(sim, "bad", MemoryImage(8), vcpus=0)


def test_host_placement_capacity():
    sim = Simulator()
    host = PhysicalHost("h1", "site-a", cores=2, ram_bytes=8 * 2**30)
    vm1 = make_vm(sim, "vm1", vcpus=2)
    host.place(vm1)
    assert host.free_cores == 0
    vm2 = make_vm(sim, "vm2", vcpus=1)
    with pytest.raises(CapacityError):
        host.place(vm2)


def test_host_ram_capacity():
    sim = Simulator()
    # 1 MiB of RAM on the host; a 256-page VM needs 1 MiB -> second fails.
    host = PhysicalHost("h1", "s", cores=16, ram_bytes=2**20)
    vm1 = make_vm(sim, "vm1", pages=256)
    host.place(vm1)
    vm2 = make_vm(sim, "vm2", pages=256)
    assert not host.fits(vm2)


def test_host_double_place_rejected():
    sim = Simulator()
    h1 = PhysicalHost("h1", "s")
    h2 = PhysicalHost("h2", "s")
    vm = make_vm(sim)
    h1.place(vm)
    with pytest.raises(ValueError):
        h2.place(vm)


def test_host_evict():
    sim = Simulator()
    host = PhysicalHost("h1", "site-a")
    vm = make_vm(sim)
    host.place(vm)
    assert vm.site == "site-a"
    host.evict(vm)
    assert vm.host is None
    with pytest.raises(ValueError):
        host.evict(vm)


def test_dirtier_writes_at_configured_rate():
    sim = Simulator()
    profile = web_server()  # dirty_rate = 800 pages/s
    rng = np.random.default_rng(7)
    mem = profile.generate_memory(rng, 4096)
    vm = VirtualMachine(sim, "vm1", mem)
    host = PhysicalHost("h1", "s")
    host.place(vm)
    vm.boot()
    dirtier = Dirtier(sim, vm, profile, rng, tick=0.1)
    sim.run(until=1.0)
    vm.stop()
    # 800 pages/s for 1 s, minus dedup of indices within a tick.
    assert 500 <= dirtier.pages_written <= 800
    assert vm.memory.dirty_count > 0


def test_dirtier_pauses_with_vm():
    sim = Simulator()
    profile = web_server()
    rng = np.random.default_rng(7)
    vm = VirtualMachine(sim, "vm1", profile.generate_memory(rng, 4096))
    host = PhysicalHost("h1", "s")
    host.place(vm)
    vm.boot()
    dirtier = Dirtier(sim, vm, profile, rng, tick=0.1)
    sim.run(until=0.5)
    vm.pause()
    written_at_pause = dirtier.pages_written
    sim.run(until=1.5)
    assert dirtier.pages_written == written_at_pause
    vm.resume()
    sim.run(until=2.0)
    vm.stop()
    assert dirtier.pages_written > written_at_pause


def _dirtied(sim, host, rng, name, tick=0.1):
    profile = web_server()
    vm = VirtualMachine(sim, name, profile.generate_memory(rng, 256))
    host.place(vm)
    vm.boot()
    return Dirtier(sim, vm, profile, rng, tick=tick)


def test_dirtiers_created_together_share_one_kernel_entry():
    """Dirtiers whose ticks are drawn back to back at one instant share
    one kernel entry; a seq drawn in between keeps them apart, and a
    dirtier whose VM stopped writes nothing more and holds no entry."""
    sim = Simulator()
    host = PhysicalHost("h1", "s", cores=16)
    rng = np.random.default_rng(7)
    a = _dirtied(sim, host, rng, "a", tick=0.25)
    b = _dirtied(sim, host, rng, "b", tick=0.25)
    c = _dirtied(sim, host, rng, "c", tick=0.5)
    sim.timeout(5.0)
    d = _dirtied(sim, host, rng, "d", tick=0.5)
    # Birth entries: the timeout's seq parts d from a, b and c.
    assert queued_owners(sim) == [[a, b, c], [d], []]
    sim.step()
    sim.step()
    # c's first tick was the last seq drawn when d drew its own.
    assert queued_owners(sim) == [[a, b], [c, d], []]
    sim.run(until=1.0)
    assert queued_owners(sim) == [[c, d], [a, b], []]
    e = _dirtied(sim, host, rng, "e", tick=0.25)
    a.vm.stop()
    written = a.pages_written
    sim.run(until=1.5)
    # a's stop drew the seq its process would have ended with, so b
    # ticked alone at 1.25, right after e, and joined e's next entry.
    assert queued_owners(sim) == [[c, d], [e, b], []]
    assert a.pages_written == written


def test_dirtier_cohort_does_not_keep_its_simulator_alive():
    def world():
        sim = Simulator()
        host = PhysicalHost("h1", "s", cores=16)
        rng = np.random.default_rng(7)
        for name in ("a", "b"):
            _dirtied(sim, host, rng, name)
        sim.run(until=0.35)
        return weakref.ref(sim)

    ref = world()
    gc.collect()
    assert ref() is None


def test_dirtier_single_attachment():
    sim = Simulator()
    profile = web_server()
    rng = np.random.default_rng(7)
    vm = VirtualMachine(sim, "vm1", profile.generate_memory(rng, 1024))
    Dirtier(sim, vm, profile, rng)
    with pytest.raises(RuntimeError):
        Dirtier(sim, vm, profile, rng)
    vm.stop()


def test_dirtier_tick_validation():
    sim = Simulator()
    profile = web_server()
    rng = np.random.default_rng(7)
    vm = VirtualMachine(sim, "vm1", profile.generate_memory(rng, 64))
    with pytest.raises(ValueError):
        Dirtier(sim, vm, profile, rng, tick=0)
