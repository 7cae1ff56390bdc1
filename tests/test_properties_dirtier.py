"""Property: the dirtier ends every world exactly as one process per VM.

Random worlds mix dirtiers born at two instants with two ticks, disk
writes, late boots, pauses, resumes and stops (some at exact tick
instants, some URGENT), and foreign processes and callbacks that draw
from the dirtiers' generator.  Each world is built twice, with
:class:`~repro.hypervisor.Dirtier` and with the per-VM
:class:`tests.dirtier_oracle.ReferenceDirtier`; pages, dirty bitmaps,
disk blocks, counters, the kernel's sequence number, the foreign draws
and the generator's next value must all agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import Dirtier, DiskImage, PhysicalHost, VirtualMachine
from repro.simkernel import NORMAL, URGENT, Simulator
from repro.workloads import PROFILES

from tests.dirtier_oracle import ReferenceDirtier, snapshot, unique_base

BIRTHS = (0.0, 0.35)
TICKS = (0.1, 0.25)

members = st.lists(st.fixed_dictionaries({
    "born": st.sampled_from(BIRTHS),
    "tick": st.sampled_from(TICKS),
    "disk_rate": st.sampled_from([0.0, 150.0]),
    "boot": st.booleans(),
    "foreign_before": st.booleans(),
    "profile": st.sampled_from(sorted(PROFILES)),
}), min_size=1, max_size=6)

controls = st.lists(st.fixed_dictionaries({
    "vm": st.integers(0, 5),
    "action": st.sampled_from(["pause", "resume", "stop", "boot"]),
    # An exact tick instant of a 0.1 s dirtier born at 0, or any time.
    "at": st.one_of(st.integers(1, 15).map(lambda k: ("tick", k)),
                    st.integers(0, 32).map(lambda k: ("time", k * 0.05))),
    "priority": st.sampled_from([URGENT, NORMAL]),
    "draw": st.booleans(),
}), max_size=8)


def _tick_instant(k, tick=0.1):
    t = 0.0
    for _ in range(k):
        t = t + tick
    return t


def world(plan, make):
    base = unique_base()
    sim = Simulator()
    host = PhysicalHost("h", "s", cores=64, ram_bytes=2**40)
    rng = np.random.default_rng(plan["seed"])
    log, vms = [], []

    def foreign(tick):
        while True:
            yield sim.timeout(tick)
            log.append(("proc", sim.now, float(rng.random())))

    def create(i, spec):
        if spec["foreign_before"]:
            sim.process(foreign(spec["tick"]))
        profile = PROFILES[spec["profile"]]()
        disk = DiskImage(f"d{i}", 256) if spec["disk_rate"] else None
        vm = VirtualMachine(sim, f"vm{i}", profile.generate_memory(rng, 128),
                            disk=disk)
        host.place(vm)
        if spec["boot"]:
            vm.boot()
        make(sim, vm, profile, rng, tick=spec["tick"],
             disk_rate=spec["disk_rate"])
        vms.append(vm)

    def born_later(specs):
        yield sim.timeout(BIRTHS[1])
        for i, spec in specs:
            create(i, spec)

    def control(c):
        def callback(_event):
            if c["vm"] < len(vms):
                getattr(vms[c["vm"]], c["action"])()
            if c["draw"]:
                log.append(("ctl", sim.now, float(rng.random())))
        return callback

    for c in plan["controls"]:
        kind, value = c["at"]
        at = _tick_instant(value) if kind == "tick" else value
        sim.call_in(at, control(c), priority=c["priority"])
    specs = list(enumerate(plan["members"]))
    for i, spec in specs:
        if spec["born"] == BIRTHS[0]:
            create(i, spec)
    later = [(i, spec) for i, spec in specs if spec["born"] == BIRTHS[1]]
    if later:
        sim.process(born_later(later))
    sim.run(until=1.6)
    for vm in vms:
        vm.stop()
    sim.run(until=2.1)
    out = snapshot(sim, vms, base)
    out["log"] = log
    out["rng_next"] = float(rng.random())
    return out


@settings(max_examples=60, deadline=None)
@given(plan=st.fixed_dictionaries({"seed": st.integers(0, 2**16),
                                   "members": members,
                                   "controls": controls}))
def test_dirtier_equals_per_vm_processes(plan):
    assert world(plan, Dirtier) == world(plan, ReferenceDirtier)


@pytest.mark.parametrize("queue", [None, "calendar"])
def test_in_phase_dirtiers_share_one_kernel_entry_per_tick(queue):
    """Eight dirtiers created together tick in phase: a birth entry and
    ten tick entries each on the reference, and one birth entry and one
    entry per tick for all eight on the library."""
    def events(make):
        sim = Simulator(queue=queue)
        host = PhysicalHost("h", "s", cores=64, ram_bytes=2**40)
        rng = np.random.default_rng(3)
        profile = PROFILES["web-server"]()
        for i in range(8):
            vm = VirtualMachine(sim, f"vm{i}",
                                profile.generate_memory(rng, 128))
            host.place(vm)
            vm.boot()
            make(sim, vm, profile, rng, tick=0.1)
        sim.run(until=1.05)
        return sim._n_events

    assert events(ReferenceDirtier) - events(Dirtier) == 7 * 11
