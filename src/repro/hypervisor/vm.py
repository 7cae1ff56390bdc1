"""Virtual machines and their guest-workload dirty-page processes."""

from __future__ import annotations

import itertools
import weakref
from enum import Enum
from typing import List, Optional, Union

import numpy as np

from ..network.nat import Address
from ..simkernel.core import Simulator
from ..simkernel.process import Process
from .disk import CowDisk, DiskImage
from .memory import MemoryImage


class VMState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    MIGRATING = "migrating"  # live: guest still runs
    STOPPED = "stopped"


class VirtualMachine:
    """A guest: memory, disk, vCPUs, placement, address and workload.

    Satisfies the :class:`repro.network.nat.Endpoint` protocol, so VMs
    plug straight into the TCP/overlay layers.
    """

    _uids = itertools.count(1)

    def __init__(self, sim: Simulator, name: str, memory: MemoryImage,
                 disk: Union[DiskImage, CowDisk, None] = None, vcpus: int = 1):
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {vcpus}")
        self.sim = sim
        self.uid = next(VirtualMachine._uids)
        self.name = name
        self.memory = memory
        self.disk = disk
        self.vcpus = vcpus
        self.state = VMState.PENDING
        #: The physical host currently running this VM (set by placement).
        self.host = None
        self._address: Optional[Address] = None
        self._dirtier: Optional["Dirtier"] = None
        #: Simulated CPU-state size transferred in the stop-and-copy phase.
        self.cpu_state_bytes = 64 * 1024

    # -- Endpoint protocol -------------------------------------------------

    @property
    def site(self) -> str:
        """Name of the site this VM currently runs at."""
        if self.host is None:
            raise RuntimeError(f"{self.name!r} is not placed on any host")
        return self.host.site

    @property
    def address(self) -> Address:
        if self._address is None:
            raise RuntimeError(f"{self.name!r} has no address assigned")
        return self._address

    @address.setter
    def address(self, value: Address) -> None:
        self._address = value

    @property
    def has_address(self) -> bool:
        return self._address is not None

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_running(self) -> bool:
        """True while the guest executes (RUNNING or live-MIGRATING)."""
        return self.state in (VMState.RUNNING, VMState.MIGRATING)

    def boot(self) -> None:
        """Transition to RUNNING (host must be set)."""
        if self.host is None:
            raise RuntimeError(f"cannot boot unplaced VM {self.name!r}")
        self.state = VMState.RUNNING

    def pause(self) -> None:
        """Freeze the guest (stop-and-copy phase, or operator action)."""
        if self.state in (VMState.RUNNING, VMState.MIGRATING):
            self.state = VMState.PAUSED

    def resume(self) -> None:
        if self.state is VMState.PAUSED:
            self.state = VMState.RUNNING

    def stop(self) -> None:
        self.state = VMState.STOPPED

    # -- workload ---------------------------------------------------------

    def attach_dirtier(self, dirtier: "Dirtier") -> None:
        """Install the guest write workload (one per VM)."""
        if self._dirtier is not None:
            raise RuntimeError(f"{self.name!r} already has a dirtier")
        self._dirtier = dirtier

    @property
    def dirtier(self) -> Optional["Dirtier"]:
        return self._dirtier

    def __repr__(self):
        placed = self.host.name if self.host is not None else "unplaced"
        return f"<VM {self.name!r} {self.state.value} on {placed}>"


class Dirtier:
    """Drives guest memory writes at a workload-defined rate.

    Every ``tick`` seconds, while the VM executes, it writes
    ``rate * tick`` pages (fractional remainders accumulate so the
    long-run rate is exact).  *Which* pages and *what content* come from
    a workload profile:

    * ``pick_indices(rng, n)`` — hot-set/uniform page selection;
    * ``dirty_values(rng, n)`` — new fingerprints: unique content, or
      shared-pool content that other cluster VMs also produce.

    Deterministic under a seeded generator.  Dirtiers created one after
    another share one kernel process (see :class:`_Cohort`);
    :attr:`process` is that process, which ends once every VM in it has
    stopped.
    """

    def __init__(self, sim: Simulator, vm: VirtualMachine, profile,
                 rng: np.random.Generator, tick: float = 0.1,
                 disk_rate: float = 0.0):
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if disk_rate < 0:
            raise ValueError(f"disk_rate must be >= 0, got {disk_rate}")
        self.sim = sim
        self.vm = vm
        self.profile = profile
        self.rng = rng
        self.tick = tick
        #: Disk blocks written per second (0 = no block I/O modeled).
        self.disk_rate = disk_rate
        self._carry = 0.0
        self._disk_carry = 0.0
        self.pages_written = 0
        self.blocks_written = 0
        vm.attach_dirtier(self)
        self.process = _Cohort.join(self)

    def _tick(self) -> None:
        """One tick's writes (the VM executes)."""
        vm = self.vm
        budget = self.profile.dirty_rate * self.tick + self._carry
        n = int(budget)
        self._carry = budget - n
        if n > 0:
            n = min(n, vm.memory.n_pages)
            indices = self.profile.pick_indices(self.rng, n,
                                                vm.memory.n_pages)
            values = self.profile.dirty_values(self.rng, len(indices), vm)
            vm.memory.write(indices, values)
            self.pages_written += len(indices)
        if self.disk_rate > 0 and vm.disk is not None:
            disk_budget = self.disk_rate * self.tick + self._disk_carry
            nd = int(disk_budget)
            self._disk_carry = disk_budget - nd
            if nd > 0:
                nd = min(nd, vm.disk.n_blocks)
                block_idx = self.rng.integers(0, vm.disk.n_blocks, nd)
                block_vals = self.profile.dirty_values(self.rng, nd, vm)
                vm.disk.write(block_idx, block_vals)
                self.blocks_written += nd


class _Cohort:
    """Dirtiers with one tick, born at one instant, in one process.

    Each member stands for the process a dirtier of its own would run:
    an URGENT init entry at its birth, then a NORMAL timeout per tick
    until its VM stops.  A new dirtier joins the simulator's newest
    cohort when it has the same ``tick``, is born at the same
    ``sim.now``, and the kernel has drawn no sequence number since the
    previous member joined; otherwise it starts a new cohort.

    **Exact by construction.**  Under that rule the members' init
    entries hold consecutive sequence numbers at one ``(time,
    priority)``, so nothing can sort between them.  Dispatching them one
    after another draws the members' next timeout seqs back to back, at
    one time, so again nothing sorts between them — and so on at every
    tick.  Ticking the members inline, in join order, inside the first
    one's entry therefore runs exactly what the separate processes ran.

    The kernel's sequence stream stays the same too: the cohort draws
    one seq wherever a member's own process would have — at join for
    its init entry, after each tick for its next timeout, and one when
    its VM is found stopped (that process would have scheduled its
    completion).  The cohort's ``Timeout`` takes the first live
    member's seq and :meth:`~repro.simkernel.Simulator.reserve_seq`
    covers the rest, so every other event keeps its exact
    ``(time, priority, seq)`` key.  The process ends when the last
    member leaves; its own completion takes that member's seq.
    """

    __slots__ = ("sim", "tick", "born", "seq", "members", "process",
                 "__weakref__")

    #: simulator -> weak reference to its newest cohort.  Both sides
    #: are weak: a cohort refers to its simulator, so a strong value
    #: would keep every simulator ever built alive.
    _newest: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __init__(self, sim: Simulator, tick: float):
        self.sim = sim
        self.tick = tick
        self.born = sim.now
        self.members: List[Dirtier] = []
        self.process = sim.process(self._run(), name="dirtiers")
        #: The seq of the newest member's init entry.
        self.seq = sim._seq

    @classmethod
    def join(cls, dirtier: Dirtier) -> Process:
        """Add ``dirtier`` to its simulator's newest cohort, or to a new
        one; returns the cohort's process."""
        sim = dirtier.sim
        ref = cls._newest.get(sim)
        cohort = ref() if ref is not None else None
        if (cohort is not None and cohort.tick == dirtier.tick
                and cohort.born == sim.now and cohort.seq == sim._seq):
            cohort.seq = sim.reserve_seq()
        else:
            cohort = cls(sim, dirtier.tick)
            cls._newest[sim] = weakref.ref(cohort)
        cohort.members.append(dirtier)
        return cohort.process

    def _run(self):
        sim = self.sim
        reserve = sim.reserve_seq
        first = True
        while True:
            members, live, timeout = self.members, [], None
            last = len(members) - 1
            for i, dirtier in enumerate(members):
                vm = dirtier.vm
                if not first and vm.is_running:
                    dirtier._tick()
                if vm.state is VMState.STOPPED:
                    # Its process would end here, scheduling its
                    # completion; the cohort's own completion stands in
                    # for the last one.
                    if live or i < last:
                        reserve()
                    continue
                live.append(dirtier)
                if timeout is None:
                    timeout = sim.timeout(self.tick)
                else:
                    reserve()
            self.members = live
            if not live:
                return
            first = False
            yield timeout
