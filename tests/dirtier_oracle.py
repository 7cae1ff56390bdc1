"""Per-VM reference for :class:`~repro.hypervisor.Dirtier`.

:class:`ReferenceDirtier` is the guest write workload as one kernel
process per VM: every ``tick`` seconds while the VM is not stopped it
wakes, and while the VM executes it writes ``rate * tick`` pages (and
``disk_rate * tick`` blocks) chosen and filled by the profile.  It draws
from the shared generator in the same order as the library's dirtier,
so a world built with it must end with the same pages, dirty bitmaps,
counters, kernel sequence number and generator state.

:func:`snapshot` reads those end states out of a list of VMs, with
unique content numbered from the first fingerprint the world minted
(``base``), so two worlds built one after the other compare equal.
:func:`queued_owners` tells which kernel entries hold whose ticks.
"""

import hashlib

import numpy as np

from repro.hypervisor import VMState
from repro.hypervisor.memory import UNIQUE_FLAG, UniqueContentFactory


class ReferenceDirtier:
    """One process per VM, writing on every tick it finds the VM up."""

    def __init__(self, sim, vm, profile, rng, tick=0.1, disk_rate=0.0):
        self.sim = sim
        self.vm = vm
        self.profile = profile
        self.rng = rng
        self.tick = tick
        self.disk_rate = disk_rate
        self._carry = 0.0
        self._disk_carry = 0.0
        self.pages_written = 0
        self.blocks_written = 0
        vm.attach_dirtier(self)
        self.process = sim.process(self._run(), name=f"dirtier-{vm.name}")

    def _run(self):
        while self.vm.state is not VMState.STOPPED:
            yield self.sim.timeout(self.tick)
            if not self.vm.is_running:
                continue
            budget = self.profile.dirty_rate * self.tick + self._carry
            n = int(budget)
            self._carry = budget - n
            if n > 0:
                n = min(n, self.vm.memory.n_pages)
                indices = self.profile.pick_indices(self.rng, n,
                                                    self.vm.memory.n_pages)
                values = self.profile.dirty_values(self.rng, len(indices),
                                                   self.vm)
                self.vm.memory.write(indices, values)
                self.pages_written += len(indices)
            if self.disk_rate > 0 and self.vm.disk is not None:
                disk_budget = self.disk_rate * self.tick + self._disk_carry
                nd = int(disk_budget)
                self._disk_carry = disk_budget - nd
                if nd > 0:
                    nd = min(nd, self.vm.disk.n_blocks)
                    block_idx = self.rng.integers(0, self.vm.disk.n_blocks,
                                                  nd)
                    block_vals = self.profile.dirty_values(self.rng, nd,
                                                           self.vm)
                    self.vm.disk.write(block_idx, block_vals)
                    self.blocks_written += nd


def queued_owners(sim) -> list:
    """For each live entry on ``sim``'s heap queue, in key order, the
    objects its callbacks are bound to (plain functions stand for
    themselves).  A dirtier that holds no kernel entry is in none."""
    return [[getattr(cb, "__self__", cb) for cb in entry[3].callbacks]
            for entry in sorted(sim.queue_backend._heap)
            if not entry[3]._descheduled]


def unique_base() -> int:
    """The next unique fingerprint to be minted: pass it to
    :func:`snapshot` as ``base`` before a world is built."""
    return UniqueContentFactory._global_counter


def renumber(fingerprints: np.ndarray, base: int) -> np.ndarray:
    """``fingerprints`` with unique content counted from ``base``."""
    unique = (fingerprints & UNIQUE_FLAG) != 0
    return np.where(unique, fingerprints - np.uint64(base), fingerprints)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def snapshot(sim, vms, base: int, digest: bool = False) -> dict:
    """End state of ``vms`` and ``sim``: per VM its pages, dirty bitmap,
    written counters and (with a disk) blocks and dirty count; plus the
    kernel's sequence number and clock.  ``digest`` turns every array
    into its SHA-256 hex digest."""
    arr = _sha if digest else (lambda a: a.tolist())
    vms_out = {}
    for vm in vms:
        row = {"pages": arr(renumber(vm.memory.pages, base)),
               "dirty": arr(vm.memory._dirty),
               "pages_written": vm.dirtier.pages_written,
               "blocks_written": vm.dirtier.blocks_written}
        if vm.disk is not None:
            row["blocks"] = arr(renumber(vm.disk.blocks(), base))
            row["disk_dirty"] = vm.disk.dirty_count
        vms_out[vm.name] = row
    return {"seq": sim._seq, "now": sim.now, "vms": vms_out}
