"""Golden end states of the guest write workload (:class:`Dirtier`).

``golden/dirtier_writes.json`` holds, for each world below, every VM's
pages, dirty bitmap, disk blocks (SHA-256 digests, unique content
renumbered from the world's first minted fingerprint), its
``pages_written``/``blocks_written``, and the simulator's sequence
number and clock after the run:

* ``e2_smoke_seed{0,1,2}`` — the smoke ``ShrinkerWan`` scenario
  (``benchmarks/e2e/scenarios.py``: 4 web-server VMs migrated with their
  disks over a 1 Gbit/s WAN), then one more second so every dirtier
  sees its VM stopped;
* ``disk_writes`` — dirtiers with ``disk_rate > 0`` on flat, copy-on-
  write and missing disks;
* ``pause_stop`` — VMs paused, resumed, stopped mid-run, booted late and
  stopped before their dirtier first ran, some at exact tick instants;
* ``foreign_draws`` — callbacks and a process that draw from the
  dirtiers' generator at tick instants, dirtiers created on both sides
  of them, later, and with another tick.

The kernel sequence number pins the dispatch order the workload leaves
behind: a change that moves one dirtier entry relative to a foreign one
shows up here even where the written pages would not.  Each world is
also run with :class:`tests.dirtier_oracle.ReferenceDirtier`, one
process per VM, and must end identically.  Regenerate the file only for
an intended change to the write workload::

    PYTHONPATH=src python -m tests.test_dirtier_golden
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.hypervisor import (
    CowDisk,
    Dirtier,
    DiskImage,
    PhysicalHost,
    VirtualMachine,
)
from repro.simkernel import URGENT, Simulator
from repro.workloads import (
    database,
    generate_disk_fingerprints,
    kernel_build,
    web_server,
)

from tests.dirtier_oracle import ReferenceDirtier, snapshot, unique_base

_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios",
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)

GOLDEN = Path(__file__).resolve().parent / "golden" / "dirtier_writes.json"


def _ticks(n, tick=0.1):
    """The first ``n`` tick instants of a dirtier born at 0, summed the
    way the kernel sums them."""
    out, t = [], 0.0
    for _ in range(n):
        t = t + tick
        out.append(t)
    return out


def _place(sim, host, name, memory, disk=None, boot=True):
    vm = VirtualMachine(sim, name, memory, disk=disk)
    host.place(vm)
    if boot:
        vm.boot()
    return vm


def _host():
    return PhysicalHost("h", "s", cores=64, ram_bytes=2**40)


def _finish(sim, vms, until, grace=1.0):
    sim.run(until=until)
    for vm in vms:
        vm.stop()
    sim.run(until=until + grace)


def e2_smoke(seed, make):
    base = unique_base()
    scenarios.Dirtier = make
    try:
        scenario = scenarios.ShrinkerWan(seed, smoke=True)
    finally:
        scenarios.Dirtier = Dirtier
    scenario.run()
    sim = scenario.tb.sim
    sim.run(until=sim.now + 1.0)
    return snapshot(sim, scenario.vms, base, digest=True)


def disk_writes(make):
    base = unique_base()
    sim, host = Simulator(), _host()
    rng = np.random.default_rng(5)
    specs = [
        ("flat", web_server(),
         DiskImage("flat", 2048,
                   fingerprints=generate_disk_fingerprints(rng, 2048)),
         300.0),
        ("cow", kernel_build(), CowDisk("cow", DiskImage("base", 1024)),
         450.0),
        ("diskless", database(), None, 200.0),
        ("idle-disk", web_server(), DiskImage("idle-disk", 512), 0.0),
    ]
    vms = []
    for name, profile, disk, rate in specs:
        vm = _place(sim, host, name, profile.generate_memory(rng, 1024),
                    disk=disk)
        make(sim, vm, profile, rng, disk_rate=rate)
        vms.append(vm)
    _finish(sim, vms, 2.05)
    return snapshot(sim, vms, base, digest=True)


def pause_stop(make):
    base = unique_base()
    sim, host = Simulator(), _host()
    rng = np.random.default_rng(11)
    profile = web_server()
    names = ["a", "b", "c", "d", "late", "dead"]
    vms = {}
    for name in names:
        vms[name] = _place(sim, host, name, profile.generate_memory(rng, 512),
                           boot=name != "late")
        make(sim, vms[name], profile, rng)
    vms["dead"].stop()  # before its dirtier ever runs
    t = _ticks(20)
    for at, action, prio in [
            (0.45, vms["late"].boot, 1),
            (0.55, vms["a"].pause, 1),
            (0.85, vms["b"].stop, 1),
            (1.25, vms["a"].resume, 1),
            (t[5], vms["d"].pause, URGENT),   # before the tick's writes
            (t[8], vms["d"].resume, 1),       # after them
            (t[11], vms["c"].stop, URGENT),
    ]:
        sim.call_in(at, lambda _e, fn=action: fn(), priority=prio)
    _finish(sim, list(vms.values()), 2.0, grace=0.5)
    return snapshot(sim, list(vms.values()), base, digest=True)


def foreign_draws(make):
    base = unique_base()
    sim, host = Simulator(), _host()
    rng = np.random.default_rng(23)
    profile = web_server()
    log = []

    def draw(tag):
        def callback(_event):
            log.append([tag, sim.now, rng.random(2).tolist()])
        return callback

    def foreign():
        while True:
            yield sim.timeout(0.1)
            log.append(["proc", sim.now, rng.integers(0, 1000, 3).tolist()])

    vms = []

    def dirtied(name, tick=0.1):
        vm = _place(sim, host, name, profile.generate_memory(rng, 512))
        make(sim, vm, profile, rng, tick=tick)
        vms.append(vm)

    def later():
        yield sim.timeout(0.35)
        dirtied("e")
        dirtied("f", tick=0.25)
        dirtied("g")

    t = _ticks(12)
    sim.call_in(t[2], draw("early"))  # queued before every dirtier
    dirtied("a")
    dirtied("b")
    sim.process(foreign())
    dirtied("c")
    dirtied("d")
    sim.call_in(t[4], draw("late"))
    sim.call_in(t[3], draw("urgent"), priority=URGENT)
    sim.process(later())
    _finish(sim, vms, 1.5, grace=0.5)
    out = snapshot(sim, vms, base, digest=True)
    out["log"] = hashlib.sha256(json.dumps(log).encode()).hexdigest()
    out["rng_next"] = float(rng.random())
    return out


CASES = {
    "e2_smoke_seed0": lambda make: e2_smoke(0, make),
    "e2_smoke_seed1": lambda make: e2_smoke(1, make),
    "e2_smoke_seed2": lambda make: e2_smoke(2, make),
    "disk_writes": disk_writes,
    "pause_stop": pause_stop,
    "foreign_draws": foreign_draws,
}


def _plain(doc):
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("case", list(CASES))
def test_dirtier_writes_match_golden(case):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert _plain(CASES[case](Dirtier)) == want


@pytest.mark.parametrize("case", list(CASES))
def test_dirtier_matches_per_vm_reference(case):
    assert CASES[case](Dirtier) == CASES[case](ReferenceDirtier)


if __name__ == "__main__":
    doc = {case: build(Dirtier) for case, build in CASES.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
