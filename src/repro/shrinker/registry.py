"""The distributed content registry at a destination site.

Shrinker keeps, per destination cloud, a distributed index of the page
and block contents already present there (in the memory of running VMs,
on their disks, and in everything earlier migrations delivered).  A
migrating source queries it per page hash: *hit* means "send the digest,
the destination reconstructs the page locally"; *miss* means "send the
page, then register it".

The registry is shared by **all** VMs migrating to that site, which is
how inter-VM deduplication across a whole virtual cluster emerges: the
first VM pays for the common OS pages, every later VM sends digests.

Implementation: a sorted, deduplicated ``uint64`` array (the index)
plus a pending buffer of recent additions.  A batch of m queries probes
the index of n entries with :func:`numpy.searchsorted`, O(m log n), and
never re-sorts it.  Consolidation deduplicates only the pending buffer,
drops what the index already holds, and merges the two sorted runs in
linear time.  No Python-level loops, and no :func:`numpy.unique` or
:func:`numpy.isin`, which would rebuild the whole index per call (see
DESIGN.md).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..hypervisor.memory import sorted_unique


class ContentRegistry:
    """Site-wide content index with vectorized batch operations."""

    #: Pending additions merge into the index once they exceed this many
    #: fingerprints, or half the index if that is larger.
    min_pending = 4096

    def __init__(self, site: str):
        self.site = site
        self._known = np.empty(0, dtype=np.uint64)
        self._pending: list = []
        self._pending_count = 0
        #: Query statistics (the Shrinker report plots hit rates).
        self.queries = 0
        self.hits = 0

    # -- internal -------------------------------------------------------

    def _probe(self, fingerprints: np.ndarray) -> np.ndarray:
        """Which of ``fingerprints`` (``uint64``) the index holds."""
        known = self._known
        if len(known) == 0:
            return np.zeros(len(fingerprints), dtype=bool)
        at = known.searchsorted(fingerprints)
        np.minimum(at, len(known) - 1, out=at)
        return known[at] == fingerprints

    def _consolidate(self) -> None:
        if not self._pending:
            return
        fresh = sorted_unique(np.concatenate(self._pending))
        fresh = fresh[~self._probe(fresh)]
        merged = np.concatenate((self._known, fresh))
        # Two sorted runs: the stable sort (timsort) merges them linearly.
        merged.sort(kind="stable")
        self._known = merged
        self._pending = []
        self._pending_count = 0

    # -- API ------------------------------------------------------------

    def __len__(self) -> int:
        self._consolidate()
        return len(self._known)

    def contains(self, fingerprints: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``fingerprints`` are already present."""
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        self._consolidate()
        mask = self._probe(fingerprints)
        self.queries += len(fingerprints)
        self.hits += int(mask.sum())
        return mask

    def add(self, fingerprints: np.ndarray) -> None:
        """Register newly arrived content (lazy consolidation)."""
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        if len(fingerprints) == 0:
            return
        self._pending.append(fingerprints)
        self._pending_count += len(fingerprints)
        # Keep the pending buffer small relative to the index.
        if self._pending_count > max(self.min_pending, len(self._known) // 2):
            self._consolidate()

    def prepopulate_from_memory(self, memory) -> None:
        """Index the pages of a VM already resident at this site."""
        self.add(sorted_unique(memory.pages))

    def prepopulate_from_disk(self, disk) -> None:
        """Index the blocks of a disk image stored at this site."""
        self.add(sorted_unique(disk.blocks()))

    def prepopulate(self, vms: Iterable = (), disks: Iterable = ()) -> None:
        """Index a collection of resident VMs and stored images."""
        for vm in vms:
            self.prepopulate_from_memory(vm.memory)
            if getattr(vm, "disk", None) is not None:
                self.prepopulate_from_disk(vm.disk)
        for disk in disks:
            self.prepopulate_from_disk(disk)

    @property
    def hit_rate(self) -> float:
        """Fraction of queried pages found at the destination."""
        return self.hits / self.queries if self.queries else 0.0

    def __repr__(self):
        return (f"<ContentRegistry {self.site!r} entries={len(self)} "
                f"hit_rate={self.hit_rate:.2%}>")


class RegistryDirectory:
    """One registry per destination site, created on demand."""

    def __init__(self):
        self._registries: dict = {}

    def for_site(self, site: str) -> ContentRegistry:
        reg = self._registries.get(site)
        if reg is None:
            reg = self._registries[site] = ContentRegistry(site)
        return reg

    def __contains__(self, site: str) -> bool:
        return site in self._registries
