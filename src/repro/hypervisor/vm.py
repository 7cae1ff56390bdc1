"""Virtual machines and their guest-workload dirty-page processes."""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional, Union

import numpy as np

from ..network.nat import Address
from ..simkernel.core import Simulator
from ..simkernel.events import URGENT
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

    Deterministic under a seeded generator.  The dirtier keeps the keys
    of a kernel process of its own -- an URGENT birth entry, then a
    NORMAL entry per tick until it finds its VM stopped -- but ticks
    through :meth:`~repro.simkernel.Simulator.tick_in`, so dirtiers
    created one after another share one kernel entry per tick.
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
        sim.tick_in(0.0, self._next, URGENT)

    def _wake(self, _event) -> None:
        """A tick: write if the VM executes, then draw the next tick."""
        if self.vm.is_running:
            self._tick()
        self._next(_event)

    def _next(self, _event) -> None:
        """Draw the next tick, or stop with the VM."""
        if self.vm.state is VMState.STOPPED:
            # A process of its own would end here, queueing its
            # completion under this seq.
            self.sim.reserve_seq()
        else:
            self.sim.tick_in(self.tick, self._wake)

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
